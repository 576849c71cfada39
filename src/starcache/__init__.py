"""Deterministic simulator of hardened L1 cache designs under cache
side-channel attacks.

Three L1 designs, the conventional ``sa-lru`` baseline and the
hardened ``star-farr`` and ``star-news`` (``models.DESIGNS``), sit under
one speculative load engine and a shared two-level write-back hierarchy.

Attack harnesses (flush-reload and prime-probe, against first-round AES
table lookups and against a bounds-check-bypass gadget) drive the
models and report recovered secrets, leakage scores, and noise floors.
"""

from .attacks import (run_flush_reload_aes, run_prime_probe_aes, run_spectre,
                      run_spectre_sweep, AttackRun, SweepRun, ATTACK_NAMES)
from .checks import run_selftest, CheckResult
from .config import ConfigError, RunConfig, load_config
from .core import CacheGeometry, FlatMemory, Rng
from .engine import SpecEngine, SquashReport
from .hierarchy import AccessOutcome, Hierarchy
from .models import FarrCache, NewsCache, SetAssocLru, MODEL_NAMES
from .observe import (ObservationMatrix, RecoveryResult, leakage_score,
                      mi_bits, noise_floor, recover_byte, recover_nibble)
from .trace import (ReplayStats, TraceEvent, TraceParseError, parse_trace,
                    format_trace, replay, synth_trace, PROFILES)

__version__ = "0.1.0"

__all__ = [
    "AccessOutcome", "AttackRun", "ATTACK_NAMES", "CacheGeometry",
    "CheckResult", "ConfigError", "FarrCache", "FlatMemory", "Hierarchy",
    "MODEL_NAMES", "NewsCache", "ObservationMatrix", "PROFILES",
    "RecoveryResult", "ReplayStats", "Rng", "RunConfig", "SetAssocLru",
    "SpecEngine", "SquashReport", "SweepRun", "TraceEvent", "TraceParseError",
    "format_trace", "leakage_score", "load_config", "mi_bits", "noise_floor",
    "parse_trace", "recover_byte", "recover_nibble", "replay",
    "run_flush_reload_aes", "run_prime_probe_aes", "run_selftest",
    "run_spectre", "run_spectre_sweep", "synth_trace",
]
