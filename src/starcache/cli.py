"""Command-line front end.

Subcommands: attack (one harness run), sweep (a harness over all 256
secret values), replay (trace files and synthetic workloads), selftest
(invariant suites).  Every output file starts with the effective
configuration echoed as "# key=value" lines, and nothing in any output
depends on wall-clock state, so a repeated invocation writes identical
bytes.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from . import attacks, checks
from .config import ConfigError, RunConfig, load_config, read_utf8
from .core import Rng
from .engine import SpecEngine
from .models import DESIGNS, MODEL_NAMES
from .observe import write_csv
from .trace import (PROFILES, ReplayStats, TraceParseError, parse_trace,
                    replay, synth_trace)

_FIELDS = frozenset(f.name for f in dataclasses.fields(RunConfig))


def _add_config(p: argparse.ArgumentParser, harness: bool) -> None:
    """The RunConfig flags of one subcommand, each with its field name
    as dest; harness adds those only the attack harnesses read."""
    p.add_argument("--config", metavar="FILE",
                   help="flat key = value config file")
    p.add_argument("--model", choices=MODEL_NAMES)
    p.add_argument("--k", type=int, metavar="BITS",
                   help="extra index bits (star-news only)")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", dest="out_dir", metavar="DIR",
                   help="output directory")
    p.add_argument("--l1-hit-cycles", type=int, metavar="N")
    p.add_argument("--l2-hit-cycles", type=int, metavar="N")
    p.add_argument("--memory-cycles", type=int, metavar="N")
    p.add_argument("--debug-checks", action="store_true", default=None,
                   help="run structural invariant checks after every access")
    if harness:
        p.add_argument("--trials", type=int)
        p.add_argument("--noise-sigma", type=float, metavar="CYCLES",
                       help="gaussian jitter added to measured latencies")
        p.add_argument("--dip-threshold-cycles", type=float,
                       metavar="CYCLES")


def _load(args: argparse.Namespace) -> RunConfig:
    overrides = {k: v for k, v in vars(args).items() if k in _FIELDS}
    return load_config(args.config, os.environ, overrides)


def _out_path(cfg: RunConfig, name: str) -> str:
    os.makedirs(cfg.out_dir, exist_ok=True)
    return os.path.join(cfg.out_dir, name)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=2,
                            allow_nan=False))
        fh.write("\n")


def _echo(cfg: RunConfig, extra: dict) -> list[tuple[str, str]]:
    items = cfg.echo_items()
    for key in sorted(extra):
        items.append((key, str(extra[key])))
    return items


def _parse_key(text: str) -> bytes:
    try:
        key = bytes.fromhex(text)
    except ValueError:
        raise ConfigError(f"key must be hex, got {text!r}")
    if len(key) != 16:
        raise ConfigError(f"key must be 16 bytes (32 hex chars), "
                          f"got {len(key)}")
    return key


def cmd_attack(args: argparse.Namespace) -> int:
    cfg = _load(args)
    kind = args.kind
    if kind == "fr-aes":
        run = attacks.run_flush_reload_aes(cfg, _parse_key(args.key))
    elif kind == "pp-aes":
        run = attacks.run_prime_probe_aes(cfg, _parse_key(args.key))
    else:
        run = attacks.run_spectre(cfg, kind, args.secret,
                                  same_domain=not args.cross_domain,
                                  enter_wrong_path=not args.skip_wrong_path)
    if kind == "pp-spectre":
        # that harness pins its own l1 geometry; echo what actually ran
        cfg = attacks.pp_experiment_config(cfg)
    summary = run.summary()
    header = _echo(cfg, {"attack": kind, "run_trials": run.trials,
                         "run_seed": run.seed})
    run.matrix.write_csv(_out_path(cfg, f"{kind}-{cfg.model}-matrix.csv"),
                         header)
    _write_json(_out_path(cfg, f"{kind}-{cfg.model}-summary.json"), summary)
    print(f"{kind} on {cfg.model}: {run.trials} trials")
    if run.recovery is not None:
        for line in run.recovery.as_text():
            print(" ", line)
    else:
        shown = "NONE" if run.recovered is None else str(run.recovered)
        print(f"  recovered: {shown} (margin {run.margin:.2f} cycles)")
    if run.score is not None:
        print(f"  leakage score {run.score:.4f} bits, "
              f"noise floor {run.floor:.4f} bits")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load(args)
    kind = args.kind
    run = attacks.run_spectre_sweep(cfg, kind,
                                    same_domain=not args.cross_domain)
    if kind == "pp-spectre":
        cfg = attacks.pp_experiment_config(cfg)
    header = _echo(cfg, {"attack": kind, "sweep": "secret 0..255",
                         "run_trials": run.trials_per_secret,
                         "run_seed": run.seed})
    base = f"{kind}-sweep-{cfg.model}"
    write_csv(_out_path(cfg, f"{base}-secrets.csv"), header,
              ("secret", "recovered", "margin"),
              ((s, "NONE" if got is None else got, margin) for s, (got, margin)
               in enumerate(zip(run.recovered, run.margins))))
    run.matrix.write_csv(_out_path(cfg, f"{base}-matrix.csv"), header)
    _write_json(_out_path(cfg, f"{base}-summary.json"), run.summary())
    print(f"{kind} sweep on {cfg.model}: "
          f"{run.exact_count}/256 exact, {run.none_count}/256 abstained")
    return 0


def _stats_for(cfg: RunConfig, events) -> ReplayStats:
    hier = cfg.build_hierarchy(Rng(cfg.seed).fork("replay"))
    engine = SpecEngine(hier, capacity=cfg.window_capacity,
                        clear_specbit_on_commit=cfg.clear_specbit_on_commit)
    return replay(events, hier, engine)


def cmd_replay(args: argparse.Namespace) -> int:
    cfg = _load(args)
    if (args.trace is None) == (args.synth is None):
        raise ConfigError("give exactly one input: a trace file or --synth")
    if args.synth is not None:
        try:
            events = synth_trace(args.synth, args.events, seed=cfg.seed,
                                 p_squash=args.p_squash,
                                 store_fraction=args.store_fraction,
                                 footprint_lines=args.footprint,
                                 domains=args.domains)
        except ValueError as exc:
            raise ConfigError(f"--synth {args.synth}: {exc}") from None
        source = {"synth": args.synth, "events": args.events,
                  "p_squash": args.p_squash}
    else:
        events = parse_trace(read_utf8(args.trace))
        source = {"trace": os.path.basename(args.trace)}

    if args.sweep_k is not None:
        if DESIGNS[cfg.model].k is None:
            raise ConfigError("--sweep-k only applies to star-news")
        try:
            ks = [int(part) for part in args.sweep_k.split(",") if part]
        except ValueError:
            raise ConfigError(f"bad --sweep-k list {args.sweep_k!r}")
        if not ks:
            raise ConfigError("--sweep-k needs at least one value")
        rows = []
        for k in ks:
            cfg_k = dataclasses.replace(cfg, k=k).validate()
            rows.append((k, _stats_for(cfg_k, events)))
        path = _out_path(cfg, f"replay-{cfg.model}-ksweep.csv")
        write_csv(path, _echo(cfg, source), ("k", *ReplayStats.FIELDS),
                  ((k, *stats.as_dict().values()) for k, stats in rows))
        print(f"{'k':>4} {'tagmiss_forward_nofill':>24} {'l1_hits':>10}")
        for k, stats in rows:
            print(f"{k:>4} {stats.tagmiss_forward_nofill:>24} "
                  f"{stats.l1_hits:>10}")
        print(f"wrote {path}")
        return 0

    stats = _stats_for(cfg, events)
    path = _out_path(cfg, f"replay-{cfg.model}.csv")
    write_csv(path, _echo(cfg, source), ("stat", "value"),
              stats.as_dict().items())
    width = max(len(n) for n in ReplayStats.FIELDS)
    for name, v in stats.as_dict().items():
        shown = f"{v:.6f}" if isinstance(v, float) else str(v)
        print(f"  {name:<{width}} {shown}")
    print(f"wrote {path}")
    return 0


def cmd_selftest(args: argparse.Namespace) -> int:
    results = checks.run_selftest(quick=args.quick, mutate=args.mutate)
    failed = 0
    for r in results:
        mark = "  ok " if r.ok else " FAIL"
        print(f"[{mark}] {r.name}: {r.detail}")
        failed += 0 if r.ok else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="starcache",
        description="Side-channel experiments on hardened L1 cache models.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("attack", help="run one attack harness")
    p.add_argument("kind", choices=attacks.ATTACK_NAMES)
    p.add_argument("--key", default="0" * 32, metavar="HEX32",
                   help="16-byte victim key for the aes harnesses")
    p.add_argument("--secret", type=int, default=30, metavar="BYTE",
                   help="victim secret for the spectre harnesses")
    p.add_argument("--cross-domain", action="store_true",
                   help="put the spectre attacker in a different domain")
    p.add_argument("--skip-wrong-path", action="store_true",
                   help="model a correctly predicted branch (no misspeculation)")
    p.add_argument("--vote-threshold", type=float, metavar="FRAC")
    _add_config(p, harness=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("sweep", help="run a spectre harness over all secrets")
    p.add_argument("kind", choices=tuple(attacks.SPECTRE))
    p.add_argument("--cross-domain", action="store_true")
    _add_config(p, harness=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("replay", help="drive a hierarchy from a trace")
    p.add_argument("trace", nargs="?", help="trace file path")
    p.add_argument("--synth", choices=PROFILES,
                   help="generate a synthetic workload instead")
    p.add_argument("--events", type=int, default=20_000, metavar="N")
    p.add_argument("--p-squash", type=float, default=0.1, metavar="P",
                   help="per-window squash probability (spec-mix)")
    p.add_argument("--store-fraction", type=float, default=0.1, metavar="F")
    p.add_argument("--footprint", type=int, default=4096, metavar="LINES")
    p.add_argument("--domains", type=int, default=1, metavar="N")
    p.add_argument("--sweep-k", metavar="LIST",
                   help="comma-separated k values, one replay each")
    _add_config(p, harness=False)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("selftest", help="run the invariant suites")
    p.add_argument("--quick", action="store_true",
                   help="reduced trial counts")
    p.add_argument("--mutate", choices=tuple(checks.MUTATIONS),
                   help="inject a known defect; the suite must go red")
    p.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceParseError, OSError) as exc:
        print(f"starcache: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
