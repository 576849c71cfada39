"""Self-test of the benchmark.

Every workload runs at a tiny size, traced and untraced.  Each run must
emit exactly the metrics BENCHMARK.json names, with their units, pass
every output check, and report the same sim_digest both ways; the
traced runs must keep the zero-by-construction predictions.  Run from
the repository root:

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)

AES = ("aes-pp", "aes-fr")
# per-layer metric -> workloads on which nothing can move it off zero
ZERO = {
    "hierarchy.l2_evictions": AES,
    "hierarchy.back_invalidate_ns": AES,
    "hierarchy.store_ns": AES,
    "core.memory_write_ns": AES,
    "hierarchy.flushes": ("aes-pp", "replay"),
    "hierarchy.flush_ns": ("aes-pp", "replay"),
    "engine.issue_load_ns": AES,
    "engine.squash_from_ns": AES,
    "engine.resolve_ns": AES,
    "engine.loads_squashed": AES,
    "hierarchy.sfill_inv_ns": AES,
    "hierarchy.sfill_inv_sent": AES,
    "models.tagmiss_forward_nofill": AES + ("replay",),
    "trace.replay_events_per_s.uniform-random": AES,
    "trace.replay_events_per_s.spec-mix": AES,
    "trace.parse_s": AES,
    "trace.synth_s": AES,
    "attacks.harness_self_s": ("replay",),
    "observe.record_ns": ("replay",),
    "observe.score_s": ("replay",),
}


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(run, "OUT_DIR", str(tmp_path_factory.mktemp("out")))
        for workload in workloads.WORKLOADS:
            for trace in (False, True):
                out[workload, trace] = run.measure(
                    workload, run.DEFAULT_SEED, 0, trace,
                    sizes=workloads.TINY, min_rounds=1)
    return out


def _declared(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_benchmark_json_declares_what_the_code_emits():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == run.layer_units()
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (False, True))
def test_emits_every_metric_and_passes_every_check(records, workload, trace):
    rec = records[workload, trace]
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in rec["metrics"].items()} == declared
    assert rec["checks_attempted"] >= 1
    assert rec["checks_failed"] == []


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_simulates_the_same_outputs(records, workload):
    assert records[workload, True]["sim_digest"] == \
        records[workload, False]["sim_digest"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_zero_by_construction(records, workload):
    metrics = records[workload, True]["metrics"]
    for name, zero_on in ZERO.items():
        value = metrics[name]["value"]
        assert (value == 0) == (workload in zero_on), (name, value)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
