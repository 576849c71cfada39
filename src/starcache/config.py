"""Run configuration: defaults, config file, environment, CLI flags.

Precedence, lowest to highest: built-in defaults, config file (flat
``key = value`` lines), ``STARCACHE_*`` environment variables, explicit
flag values.  Every consumer echoes the effective configuration into
its output header so a result file is reproducible from its own
preamble plus the seed.
"""

from __future__ import annotations

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Mapping, get_args, get_type_hints

from .core import CacheGeometry, Rng
from .hierarchy import Hierarchy
from .models import MODEL_NAMES

ENV_PREFIX = "STARCACHE_"

# Rng.gauss never strays past about 8.58 sigma: u1 is at most 1 - 2**-53,
# so the radius is at most sqrt(106 ln 2).  Under this bound a jittered
# latency stays below 1e7 cycles, and no sum of them nears float overflow.
MAX_NOISE_SIGMA = 1e6

# the largest geometry validate accepts; its docstring gives the cost
MAX_LINE_SIZE = 1 << 12
MAX_LEVEL_LINES = 1 << 20


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    model: str = "sa-lru"
    k: int | None = None                 # extra index bits, star-news only
    line_size: int = 64
    l1_lines: int = 512
    l1_assoc: int = 8
    l2_lines: int = 4096
    l2_assoc: int = 8
    l1_hit_cycles: int = 1
    l2_hit_cycles: int = 12
    memory_cycles: int = 100
    seed: int = 1
    trials: int | None = None            # None: the harness default
    window_capacity: int = 64
    clear_specbit_on_commit: bool = False
    debug_checks: bool = False
    dip_threshold_cycles: float = 6.0
    vote_threshold: float = 0.5
    noise_sigma: float = 0.0
    out_dir: str = "out"

    def validate(self) -> "RunConfig":
        """Self, or ConfigError naming the first bad field.

        At the geometry bounds, sa-lru with both levels direct-mapped (one
        empty OrderedDict per line) takes 1.8 s and 274 MiB of peak RSS
        to build, the star models 185 MiB (CPython 3.11, 2-core Xeon VM).
        """
        if self.model not in MODEL_NAMES:
            raise ConfigError(
                f"unknown model {self.model!r}; choose from {', '.join(MODEL_NAMES)}")
        if self.k is not None:
            if self.model != "star-news":
                raise ConfigError("k only applies to star-news")
            if not 0 <= self.k <= 16:
                raise ConfigError(f"k must be 0..16, got {self.k}")
        for name in ("l1_hit_cycles", "l2_hit_cycles", "memory_cycles"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1")
        if self.window_capacity < 1:
            raise ConfigError("window_capacity must be at least 1")
        if self.trials is not None and self.trials < 1:
            raise ConfigError("trials must be positive")
        if not 0 <= self.seed < 1 << 64:     # the Rng keeps 64 bits
            raise ConfigError("seed must be non-negative and below 2**64")
        if not 0.0 < self.vote_threshold <= 1.0:
            raise ConfigError("vote_threshold must lie in (0, 1]")
        for name in ("dip_threshold_cycles", "noise_sigma"):
            if not 0 <= getattr(self, name) < math.inf:     # NaN fails too
                raise ConfigError(f"{name} must be finite and non-negative")
        if self.noise_sigma > MAX_NOISE_SIGMA:
            raise ConfigError(
                f"noise_sigma must be at most {MAX_NOISE_SIGMA:g} cycles")
        if self.line_size > MAX_LINE_SIZE:
            raise ConfigError(f"line_size must be at most {MAX_LINE_SIZE}")
        for name in ("l1_lines", "l2_lines"):
            if getattr(self, name) > MAX_LEVEL_LINES:
                raise ConfigError(f"{name} must be at most {MAX_LEVEL_LINES}")
        try:
            self.l1_geometry()
            self.l2_geometry()
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        return self

    @property
    def effective_k(self) -> int:
        if self.model != "star-news":
            return 0
        return 4 if self.k is None else self.k

    def l1_geometry(self) -> CacheGeometry:
        return CacheGeometry(self.line_size, self.l1_lines, self.l1_assoc,
                             self.effective_k)

    def l2_geometry(self) -> CacheGeometry:
        return CacheGeometry(self.line_size, self.l2_lines, self.l2_assoc, 0)

    def build_hierarchy(self, rng: Rng) -> Hierarchy:
        return Hierarchy(self.model, self.l1_geometry(), self.l2_geometry(),
                         rng, l1_hit_cycles=self.l1_hit_cycles,
                         l2_hit_cycles=self.l2_hit_cycles,
                         memory_cycles=self.memory_cycles,
                         debug_checks=self.debug_checks)

    def echo_items(self) -> list[tuple[str, str]]:
        """Stable key/value pairs for output file headers."""
        items = []
        for f in dataclasses.fields(self):
            v = getattr(self, f.name)
            if v is None:
                s = "none"
            elif isinstance(v, bool):
                s = "true" if v else "false"
            else:
                s = str(v)
            items.append((f.name, s))
        return items


def _concrete(hint) -> type:
    """X for an X | None annotation, else the annotation itself."""
    args = [a for a in get_args(hint) if a is not type(None)]
    return args[0] if args else hint


# field name -> the type a config file or environment value converts to
_TYPES = {name: _concrete(hint)
          for name, hint in get_type_hints(RunConfig).items()}


def _coerce(name: str, raw: str, where: str):
    base = _TYPES[name]
    text = raw.strip()
    if base is bool:
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{where}: {name} wants a boolean, got {raw!r}")
    if base is str:
        return text
    try:
        return base(text)
    except ValueError:
        raise ConfigError(
            f"{where}: {name} wants {base.__name__}, got {raw!r}") from None


def read_utf8(path: str) -> str:
    """The whole file as text; bytes that are not UTF-8 raise
    ConfigError naming the first bad byte."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} "
                              f"at byte {exc.start})") from None


def parse_config_file(path: str) -> dict:
    """Flat `key = value` lines; '#' comments; unknown keys rejected."""
    values: dict = {}
    try:
        text = read_utf8(path)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    for line_no, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{line_no}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _TYPES:
            raise ConfigError(f"{path}:{line_no}: unknown key {key!r}")
        values[key] = _coerce(key, val, f"{path}:{line_no}")
    return values


def env_overrides(env: Mapping[str, str] | None = None) -> dict:
    env = os.environ if env is None else env
    values: dict = {}
    for key in sorted(env):
        if not key.startswith(ENV_PREFIX):
            continue
        field = key[len(ENV_PREFIX):].lower()
        if field in _TYPES:
            values[field] = _coerce(field, env[key], key)
    return values


def load_config(path: str | None = None,
                env: Mapping[str, str] | None = None,
                overrides: Mapping[str, object] | None = None) -> RunConfig:
    """Merge the three external layers over the defaults and validate."""
    merged: dict = {}
    if path is not None:
        merged.update(parse_config_file(path))
    merged.update(env_overrides(env))
    if overrides:
        for key, val in overrides.items():
            if val is None:
                continue
            if key not in _TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = val
    return RunConfig(**merged).validate()
