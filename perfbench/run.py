"""Host-time benchmark for starcache.

    python3 perfbench/run.py --workload aes-pp --seed 1 --seconds 30 --trace 0

Runs one workload (aes-pp, aes-fr or replay; see workloads.py) in this
process, single-threaded, from the root of a source checkout.  It prints
every metric by name and unit, a sim_digest of the simulated outputs,
and as its last line one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the end-to-end metrics: set-up + round pairs (a
round runs every model once) for --seconds, reporting the median
set-up and the slowest round.  --trace 1 alternates an untraced round
with a traced set-up + round (tracing.py) for --seconds and reports the
per-layer metrics as medians over the traced passes.  Both write a run
record, and --trace 1 the spans of its first traced pass, to
perfbench/out/.  Simulated cycles are checked, not timed: every time
here is host time.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")

DEFAULT_SEED = 1
# Never used while the benchmark was tuned; check later claims on it too.
HELD_OUT_SEED = 2302
MIN_ROUNDS = 3

END_TO_END = {"setup_s": "s", "run_s": "s", "slowest_model_s": "s",
              "sim_ops_per_s": "ops/s", "peak_rss_mb": "MiB"}


def layer_units() -> dict:
    from tracing import PER_CALL
    from workloads import REPLAY_PROFILES
    units = {}
    for metric in PER_CALL:
        units[metric] = units[metric + ".tail"] = "ns"
    units.update({
        "hierarchy.l1_hit_ratio": "ratio",
        "hierarchy.flushes": "count",
        "hierarchy.l2_evictions": "count",
        "hierarchy.sfill_inv_sent": "count",
        "engine.loads_squashed": "count",
        "models.tagmiss_forward_nofill": "count",
        "attacks.harness_self_s": "s",
        "observe.score_s": "s",
        "trace.parse_s": "s",
        "trace.synth_s": "s",
        "config.build_hierarchy_s": "s",
    })
    for profile in REPLAY_PROFILES:
        units[f"trace.replay_events_per_s.{profile}"] = "events/s"
    units["bench.trace_overhead_ratio"] = "ratio"
    return units


def _import_s() -> float:
    """Seconds to import starcache (numpy included) in a fresh
    interpreter."""
    code = (f"import sys, time; sys.path.insert(0, {SRC!r}); "
            "t = time.perf_counter(); import starcache; "
            "print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", code], check=True,
                          capture_output=True, text=True, timeout=120)
    return float(done.stdout)


def _git_commit() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _repeat(seconds: float, min_count: int, step) -> list:
    """step() at least min_count times, and until `seconds` have passed."""
    out = []
    t0 = time.perf_counter()
    while len(out) < min_count or time.perf_counter() - t0 < seconds:
        gc.collect()
        out.append(step())
    return out


def _end_to_end(workload, seed, seconds, sizes, min_rounds, record):
    import workloads

    # Host CPU speed drifts over minutes, so every round is preceded by
    # its own set-up: set-up time is then sampled across the whole run,
    # as round time is, instead of once at its start.
    def step():
        import_s = _import_s()
        t0 = time.perf_counter()
        state = workloads.setup(workload, seed, sizes)
        setup_s = import_s + time.perf_counter() - t0
        gc.collect()
        return setup_s, workloads.run_round(state)

    steps = _repeat(seconds, min_rounds, step)
    rounds = [r for _, r in steps]
    record["setup_s"] = [s for s, _ in steps]
    record["model_s"] = [r.model_s for r in rounds]
    # Round times report the slowest round, not the median: the host
    # alternates between a contended and an uncontended CPU speed over
    # minutes, and the contended speed, which nearly every run reaches,
    # repeats across runs far better than the mix a median picks up.
    run_s = max(r.run_s for r in rounds)
    metrics = {
        "setup_s": statistics.median(record["setup_s"]),
        "run_s": run_s,
        "slowest_model_s": max(max(r.model_s.values()) for r in rounds),
        "sim_ops_per_s": rounds[0].ops / run_s,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return metrics, rounds


def _per_layer(workload, seed, seconds, sizes, record):
    import tracing
    import workloads
    state = workloads.setup(workload, seed, sizes)
    spans_path = os.path.join(OUT_DIR, f"spans-{workload}.npz")
    spans_written = False

    def pair():
        nonlocal spans_written
        plain = workloads.run_round(state)
        tracer = tracing.Tracer()
        with tracing.install(tracer):
            traced_state = workloads.setup(workload, seed, sizes)
            round_start = len(tracer)
            traced = workloads.run_round(traced_state)
        layers, tails = tracing.layer_metrics(tracer, round_start)
        if not spans_written:
            tracing.write_spans(spans_path, tracer, workload, round_start)
            spans_written = True
        return plain, traced, layers, tails

    pairs = _repeat(seconds, 1, pair)
    plain = [p[0] for p in pairs]
    traced = [p[1] for p in pairs]
    metrics = {name: statistics.median(p[2][name] for p in pairs)
               for name in pairs[0][2]}
    for profile in workloads.REPLAY_PROFILES:
        metrics[f"trace.replay_events_per_s.{profile}"] = statistics.median(
            r.replay_events[profile] / r.replay_s[profile]
            if r.replay_s.get(profile) else 0.0 for r in plain)
    metrics["bench.trace_overhead_ratio"] = (
        statistics.median(r.run_s for r in traced)
        / statistics.median(r.run_s for r in plain))
    record["per_call_tails"] = pairs[0][3]
    record["spans"] = os.path.relpath(spans_path, ROOT)
    record["model_s"] = [r.model_s for r in plain]
    record["traced_model_s"] = [r.model_s for r in traced]
    return metrics, plain + traced


def measure(workload: str, seed: int, seconds: float, trace: bool,
            sizes=None, min_rounds: int = MIN_ROUNDS) -> dict:
    """Run one workload, write its run record to OUT_DIR and return
    the record."""
    import numpy
    import workloads
    sizes = sizes or workloads.FULL
    os.makedirs(OUT_DIR, exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "seconds": seconds, "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED, "sizes": dataclasses.asdict(sizes),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "git_commit": _git_commit(),
    }
    if trace:
        metrics, rounds = _per_layer(workload, seed, seconds, sizes, record)
        units = layer_units()
    else:
        metrics, rounds = _end_to_end(workload, seed, seconds, sizes,
                                      min_rounds, record)
        units = END_TO_END
    checks = [c for r in rounds for c in r.checks]
    checks += [(f"round {i} repeats round 0's simulated outputs",
                r.digest == rounds[0].digest)
               for i, r in enumerate(rounds[1:], start=1)]
    failed = [what for what, ok in checks if not ok]
    record.update({
        "loadavg_end": os.getloadavg(), "rounds": len(rounds),
        "sim_digest": rounds[0].digest, "checks_attempted": len(checks),
        "checks_failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    })
    path = os.path.join(OUT_DIR,
                        f"record-{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    record["path"] = os.path.relpath(path, ROOT)
    return record


def _print(record: dict) -> None:
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={int(record['trace'])} rounds={record['rounds']} "
          f"(held-out seed: {record['held_out_seed']})")
    print(f"  sim_digest {record['sim_digest']}")
    tails = record.get("per_call_tails", {})
    width = max(len(name) for name in record["metrics"])
    for name, m in record["metrics"].items():
        line = f"  {name:<{width}} {m['value']:.6g} {m['unit']}"
        if name in tails:
            line += f"  (median; {tails[name]['tail']} in .tail, " \
                    f"n={tails[name]['samples']})"
        print(line)
    attempted, failed = record["checks_attempted"], record["checks_failed"]
    print(f"  {'fail_ratio':<{width}} {len(failed) / attempted:.6g} "
          f"failed/attempted ({len(failed)}/{attempted})")
    for what in failed:
        print(f"  FAILED: {what}")
    print(f"  record {record['path']}")


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "starcache", "__init__.py")):
        print(f"perfbench: error: no starcache sources under {SRC}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")

    record = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    _print(record)
    print(json.dumps({
        "correct": not record["checks_failed"],
        "attempted": record["checks_attempted"],
        "failed": len(record["checks_failed"]),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
