"""Spans around the public entry points of each starcache layer.

install() swaps each entry point for a wrapper that records one span
per call (name, start, end, parent span, and an outcome tag) into
parallel arrays, and puts the originals back on exit.  Nothing inside
the package changes.  layer_metrics() turns the spans into the
per-layer metrics; write_spans() saves them with the trial or event id
of every span.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

from starcache import attacks, observe, trace
from starcache.config import RunConfig
from starcache.core import FlatMemory
from starcache.engine import SpecEngine
from starcache.hierarchy import Hierarchy

# One trial of either AES harness ends with one ObservationMatrix.record
# per key byte; one replay event starts with one issue_* call.
UNIT_BOUNDARIES = {
    "aes-pp": (("observe.record",), attacks.KEY_BYTES),
    "aes-fr": (("observe.record",), attacks.KEY_BYTES),
    "replay": (("engine.issue_load", "engine.issue_store",
                "engine.issue_barrier"), 1),
}


class Tracer:
    """Spans of one traced pass, kept as parallel arrays."""

    def __init__(self):
        self.names: list[str] = []
        self.name = array("B")
        self.parent = array("i")
        self.tag = array("i")
        self.start = array("q")
        self.end = array("q")
        self.hierarchies = []      # every hierarchy built while traced
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, tag=None):
        """fn, recording a span per call; tag(result) is stored with it."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        names, parent, tags = self.name, self.parent, self.tag
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            names.append(nid)
            parent.append(stack[-1])
            tags.append(0)
            end.append(0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if tag is not None:
                tags[i] = tag(out)
            return out

        return traced


def _traced_build(tracer: Tracer, build):
    """build_hierarchy that also wraps the new hierarchy's per-instance
    entry points: both levels' access and the L2 eviction hook."""
    def build_hierarchy(cfg, rng, **tweaks):
        hier = build(cfg, rng, **tweaks)
        tracer.hierarchies.append(hier)
        hier.l1.access = tracer.wrap("models.l1_access", hier.l1.access)
        hier.l2.access = tracer.wrap("models.l2_access", hier.l2.access)
        hier.l2.on_evict = tracer.wrap("hierarchy.back_invalidate",
                                       hier.l2.on_evict)
        return hier
    return build_hierarchy


# (owner, attribute, span name, tag of the result)
_ENTRY_POINTS = (
    (attacks, "run_prime_probe_aes", "attacks.harness", None),
    (attacks, "run_flush_reload_aes", "attacks.harness", None),
    (attacks, "leakage_score", "observe.leakage_score", None),
    (attacks, "noise_floor", "observe.noise_floor", None),
    (attacks, "recover_nibble", "observe.recover_nibble", None),
    (observe.ObservationMatrix, "record", "observe.record", None),
    (trace, "synth_trace", "trace.synth_trace", None),
    (trace, "parse_trace", "trace.parse_trace", None),
    (trace, "replay", "trace.replay", None),
    (Hierarchy, "load", "hierarchy.load", lambda out: out.source_level),
    (Hierarchy, "store", "hierarchy.store", None),
    (Hierarchy, "flush", "hierarchy.flush", None),
    (Hierarchy, "sfill_inv", "hierarchy.sfill_inv", None),
    (FlatMemory, "read_line", "core.memory_read", None),
    (FlatMemory, "write_line", "core.memory_write", None),
    (SpecEngine, "issue_load", "engine.issue_load", None),
    (SpecEngine, "issue_store", "engine.issue_store", None),
    (SpecEngine, "issue_barrier", "engine.issue_barrier", None),
    (SpecEngine, "squash_from", "engine.squash_from",
     lambda report: report.loads_squashed),
    (SpecEngine, "resolve_to", "engine.resolve_to", None),
    (SpecEngine, "commit_all", "engine.commit_all", None),
)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Trace every entry point for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, tag in _ENTRY_POINTS:
            orig = getattr(owner, attr)
            saved.append((owner, attr, orig))
            setattr(owner, attr, tracer.wrap(name, orig, tag))
        orig = RunConfig.build_hierarchy
        saved.append((RunConfig, "build_hierarchy", orig))
        RunConfig.build_hierarchy = tracer.wrap(
            "config.build_hierarchy", _traced_build(tracer, orig))
        yield tracer
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


class _Spans:
    """numpy views of a tracer's spans lo..hi, which must hold every
    descendant of each span in the range."""

    def __init__(self, tracer: Tracer, lo: int = 0, hi: int | None = None):
        part = slice(lo, hi)
        self.names = tracer.names
        self.name = np.frombuffer(tracer.name, dtype=np.uint8)[part]
        self.tag = np.frombuffer(tracer.tag, dtype=np.int32)[part]
        self.dur = (np.frombuffer(tracer.end, dtype=np.int64)[part]
                    - np.frombuffer(tracer.start, dtype=np.int64)[part])
        parent = np.frombuffer(tracer.parent, dtype=np.int32)[part] - lo
        inside = parent >= 0
        children = np.bincount(parent[inside], weights=self.dur[inside],
                               minlength=len(self.dur))
        self.self_ns = self.dur - children

    def mask(self, *names: str) -> np.ndarray:
        return _select(self.names, self.name, names)


def _select(names: list, name: np.ndarray, wanted) -> np.ndarray:
    """Which spans carry one of the wanted span names."""
    return np.isin(name, [names.index(n) for n in wanted if n in names])


# Per-call tails: the highest of these percentiles with at least ten
# samples beyond it.
_TAIL_LADDER = (99.99, 99.9, 99.0, 90.0, 50.0)


def per_call(values: np.ndarray) -> tuple[float, float, str, int]:
    """(median, tail, tail label, samples) of per-call nanoseconds; all
    zero when the layer was never called."""
    n = len(values)
    if n == 0:
        return 0.0, 0.0, "none", 0
    median = float(np.median(values))
    for p in _TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return median, float(np.percentile(values, p)), f"p{p:g}", n
    return median, float(values.max()), "max", n


# per-call metric -> (span name, outcome tag or None, self time?)
PER_CALL = {
    "hierarchy.load_hit_ns": ("hierarchy.load", 1, False),
    "hierarchy.load_l2_ns": ("hierarchy.load", 2, False),
    "hierarchy.load_mem_ns": ("hierarchy.load", 3, False),
    "hierarchy.flush_ns": ("hierarchy.flush", None, False),
    "hierarchy.store_ns": ("hierarchy.store", None, False),
    "hierarchy.back_invalidate_ns": ("hierarchy.back_invalidate", None, False),
    "hierarchy.sfill_inv_ns": ("hierarchy.sfill_inv", None, False),
    "models.l1_access_self_ns": ("models.l1_access", None, True),
    "models.l2_access_self_ns": ("models.l2_access", None, True),
    "core.memory_read_ns": ("core.memory_read", None, False),
    "core.memory_write_ns": ("core.memory_write", None, False),
    "engine.issue_load_ns": ("engine.issue_load", None, False),
    "engine.squash_from_ns": ("engine.squash_from", None, False),
    "engine.resolve_ns": ("engine.resolve_to", None, False),
    "observe.record_ns": ("observe.record", None, False),
}


def layer_metrics(tracer: Tracer, round_start: int) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass whose round began at span
    index round_start (the spans before it are set-up).  Returns the
    metric values and, per per-call metric, its tail label and count."""
    setup, run = _Spans(tracer, 0, round_start), _Spans(tracer, round_start)
    out, tails = {}, {}
    for metric, (span, tag, use_self) in PER_CALL.items():
        sel = run.mask(span)
        if tag is not None:
            sel &= run.tag == tag
        values = (run.self_ns if use_self else run.dur)[sel]
        out[metric], out[metric + ".tail"], label, n = per_call(values)
        tails[metric] = {"tail": label, "samples": n}

    loads = run.mask("hierarchy.load")
    n_loads = int(loads.sum())
    out["hierarchy.l1_hit_ratio"] = (
        int((loads & (run.tag == 1)).sum()) / n_loads if n_loads else 0.0)
    out["hierarchy.flushes"] = int(run.mask("hierarchy.flush").sum())
    out["hierarchy.l2_evictions"] = int(
        run.mask("hierarchy.back_invalidate").sum())
    out["hierarchy.sfill_inv_sent"] = int(
        run.mask("hierarchy.sfill_inv").sum())
    out["engine.loads_squashed"] = int(
        run.tag[run.mask("engine.squash_from")].sum())
    out["models.tagmiss_forward_nofill"] = sum(
        h.tagmiss_forward_nofill for h in tracer.hierarchies)
    out["attacks.harness_self_s"] = float(
        run.self_ns[run.mask("attacks.harness")].sum()) / 1e9
    out["observe.score_s"] = float(run.dur[run.mask(
        "observe.leakage_score", "observe.noise_floor",
        "observe.recover_nibble")].sum()) / 1e9
    out["trace.parse_s"] = float(
        run.dur[run.mask("trace.parse_trace")].sum()) / 1e9

    for metric, span in (("trace.synth_s", "trace.synth_trace"),
                         ("config.build_hierarchy_s",
                          "config.build_hierarchy")):
        out[metric] = float(setup.dur[setup.mask(span)].sum()) / 1e9
    return out, tails


def unit_ids(tracer: Tracer, workload: str) -> np.ndarray:
    """Trial (AES) or event (replay) index of every span, counted from
    the top-level span it belongs to.  Spans nest, so a top-level span's
    descendants are the spans recorded after it and before the next
    top-level span."""
    wanted, per = UNIT_BOUNDARIES[workload]
    name = np.frombuffer(tracer.name, dtype=np.uint8)
    boundary = _select(tracer.names, name, wanted).astype(np.int64)
    before = np.cumsum(boundary) - boundary
    parent = np.frombuffer(tracer.parent, dtype=np.int32)
    idx = np.arange(len(parent))
    root = np.maximum.accumulate(np.where(parent < 0, idx, 0))
    return (before - before[root]) // per


def write_spans(path: str, tracer: Tracer, workload: str,
                round_start: int) -> None:
    start = np.frombuffer(tracer.start, dtype=np.int64)
    origin = int(start[0]) if len(start) else 0
    np.savez(path,
             names=np.array(tracer.names),
             name=np.frombuffer(tracer.name, dtype=np.uint8),
             start_ns=start - origin,
             end_ns=np.frombuffer(tracer.end, dtype=np.int64) - origin,
             parent=np.frombuffer(tracer.parent, dtype=np.int32),
             unit=unit_ids(tracer, workload).astype(np.int32),
             tag=np.frombuffer(tracer.tag, dtype=np.int32),
             round_start=np.int64(round_start))
