"""Memory trace format, synthesizers, and the replayer.

Line grammar.  Lines end at any break str.splitlines knows (so CRLF
works) and split into tokens at any whitespace, tabs included.  Blank
lines are skipped; a line whose first token starts with '#' is a
comment.  Directives are case sensitive:

    L <hexaddr> [domain]       load
    S <hexaddr> [domain]       store
    SPEC_BEGIN                 open a speculation window (depth 1)
    SPEC_END commit|squash     close it, committing or squashing
    DOMAIN_SWITCH <domain>     default domain for lines that omit one

    hexaddr = ["0x" | "0X"] ASCII hex digits, below 2**48
    domain  = ASCII decimal digits, 0..254 (255 is DOMAIN_NONE)

No sign, underscore, or non-ASCII digit is accepted.  A bad line raises
TraceParseError naming it and its first problem, checked in this order:
token count, address, domain.  The default domain is 0.

Loads and stores inside a SPEC_BEGIN/SPEC_END pair issue behind an
unresolved barrier, so the loads run speculatively; SPEC_END squash
throws the window away, SPEC_END commit retires it.  Windows do not
nest.  The barrier takes one window entry, so a window holds at most
window_capacity - 1 loads and stores (63 by default); replay rejects a
longer one at the line that does not fit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields
from itertools import chain

from .core import (ADDRESS_BITS, ADDRESS_LIMIT, DOMAIN_NONE, Rng,
                   chance_threshold)
from .engine import SpecEngine, WindowFullError
from .hierarchy import Hierarchy


class EventKind(enum.Enum):
    LOAD = "L"
    STORE = "S"
    SPEC_BEGIN = "SPEC_BEGIN"
    SPEC_END = "SPEC_END"
    DOMAIN_SWITCH = "DOMAIN_SWITCH"
    COMMENT = "#"


@dataclass(slots=True)
class TraceEvent:
    kind: EventKind
    addr: int | None = None
    domain: int | None = None
    commit: bool = True          # SPEC_END disposition
    text: str = ""               # comment payload
    line_no: int = 0


class TraceParseError(ValueError):
    """A trace line that parse_trace or replay rejects.  An event with no
    source line (line_no 0, as synth_trace makes them) is named by its
    1-based position in the event list instead."""

    def __init__(self, line_no: int, message: str,
                 event_no: int | None = None):
        where = f"line {line_no}" if event_no is None else f"event {event_no}"
        super().__init__(f"{where}: {message}")
        self.line_no = line_no


def _parse_domain(tok: str, line_no: int) -> int:
    if not (tok.isascii() and tok.isdigit()):
        raise TraceParseError(line_no, f"bad domain {tok!r}")
    dom = int(tok, 10)
    if dom >= DOMAIN_NONE:
        raise TraceParseError(line_no, f"domain {dom} out of range")
    return dom


def _parse_addr(tok: str, line_no: int) -> int:
    try:
        if not (tok.isascii() and tok.isalnum()):
            raise ValueError
        addr = int(tok, 16)
    except ValueError:
        raise TraceParseError(line_no, f"bad address {tok!r}") from None
    if addr >= ADDRESS_LIMIT:
        raise TraceParseError(
            line_no, f"address 0x{addr:x} outside the 48-bit space")
    return addr


# the canonical spellings of every valid domain id, so the common case
# skips _parse_domain
_DOMAIN_IDS = {str(dom): dom for dom in range(DOMAIN_NONE)}

_LOAD = EventKind.LOAD
_STORE = EventKind.STORE
_SPEC_BEGIN = EventKind.SPEC_BEGIN
_SPEC_END = EventKind.SPEC_END
_DOMAIN_SWITCH = EventKind.DOMAIN_SWITCH
_COMMENT = EventKind.COMMENT

# parse_trace splits the text into lines about this many characters at
# a time, so it never holds the whole line list beside its events
_CHUNK = 1 << 16
# format_trace joins this many events' lines at a time
_FORMAT_CHUNK = 4096

# every character str.splitlines ends a line at; a comment holding one
# would not read back as one line
_LINE_BREAKS = frozenset("\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029")


def _chunks(text: str):
    """Cut text just after a "\\n" at least _CHUNK characters on.  No
    line break spans a "\\n" ("\\r\\n" ends at it), so splitting each
    chunk yields exactly the lines text.splitlines() would."""
    start, end = 0, len(text)
    while start < end:
        cut = text.find("\n", start + _CHUNK - 1) + 1 or end
        yield text[start:cut]
        start = cut


def parse_trace(text: str) -> list[TraceEvent]:
    """Parse trace text into events (see the module docstring).

    It holds one chunk of lines at a time, and every load or store of
    one address token shares one int.
    """
    events: list[TraceEvent] = []
    append = events.append
    domain_ids = _DOMAIN_IDS
    addrs: dict[str, int] = {}
    open_window_line = None
    lines = chain.from_iterable(map(str.splitlines, _chunks(text)))
    for line_no, raw in enumerate(lines, start=1):
        toks = raw.split()
        if not toks:
            continue
        op = toks[0]
        if op == "L" or op == "S":
            n = len(toks)
            if n != 2 and n != 3:
                raise TraceParseError(line_no, f"expected '{op} <hexaddr> [domain]'")
            tok = toks[1]
            addr = addrs.get(tok)
            if addr is None:
                addr = addrs[tok] = _parse_addr(tok, line_no)
            if n == 2:
                domain = None
            else:
                domain = domain_ids.get(toks[2])
                if domain is None:
                    domain = _parse_domain(toks[2], line_no)
            append(TraceEvent(_LOAD if op == "L" else _STORE, addr, domain,
                              True, "", line_no))
        elif op[0] == "#":
            append(TraceEvent(_COMMENT, None, None, True,
                              raw.strip()[1:].strip(), line_no))
        elif op == "SPEC_BEGIN":
            if len(toks) != 1:
                raise TraceParseError(line_no, "SPEC_BEGIN takes no arguments")
            if open_window_line is not None:
                raise TraceParseError(
                    line_no,
                    f"SPEC_BEGIN inside the window opened at line {open_window_line}")
            open_window_line = line_no
            append(TraceEvent(_SPEC_BEGIN, None, None, True, "", line_no))
        elif op == "SPEC_END":
            if len(toks) != 2 or toks[1] not in ("commit", "squash"):
                raise TraceParseError(line_no, "expected 'SPEC_END commit|squash'")
            if open_window_line is None:
                raise TraceParseError(line_no, "SPEC_END without SPEC_BEGIN")
            open_window_line = None
            append(TraceEvent(_SPEC_END, None, None, toks[1] == "commit", "",
                              line_no))
        elif op == "DOMAIN_SWITCH":
            if len(toks) != 2:
                raise TraceParseError(line_no, "expected 'DOMAIN_SWITCH <id>'")
            append(TraceEvent(_DOMAIN_SWITCH, None,
                              _parse_domain(toks[1], line_no), True, "",
                              line_no))
        else:
            raise TraceParseError(line_no, f"unknown directive {op!r}")
    if open_window_line is not None:
        raise TraceParseError(open_window_line, "SPEC_BEGIN never closed")
    return events


def _unformattable(at: int, what: str, value) -> ValueError:
    return ValueError(f"event {at + 1}: cannot format {what} {value!r}")


def format_trace(events: list[TraceEvent]) -> str:
    """Write events as trace text, one line each, that parse_trace reads
    back as the same events, except that a comment's surrounding
    whitespace is not kept.

    Raises ValueError naming the 1-based index of the first event
    parse_trace would reject or split: a load or store with no address,
    an address outside the 48-bit space, a domain outside
    0..DOMAIN_NONE - 1, or a comment holding a line break.
    """
    parts = []
    for start in range(0, len(events), _FORMAT_CHUNK):
        out = []
        append = out.append
        for ev in events[start:start + _FORMAT_CHUNK]:
            # every event before this one appended one line, so
            # start + len(out) + 1 is this event's 1-based index
            k = ev.kind
            if k is _LOAD or k is _STORE:
                addr, dom = ev.addr, ev.domain
                op = "L" if k is _LOAD else "S"
                if addr is None or not 0 <= addr < ADDRESS_LIMIT:
                    raise _unformattable(start + len(out), f"{op} address",
                                         addr)
                if dom is None:
                    append(f"{op} 0x{addr:x}")
                elif 0 <= dom < DOMAIN_NONE:
                    append(f"{op} 0x{addr:x} {dom}")
                else:
                    raise _unformattable(start + len(out), f"{op} domain",
                                         dom)
            elif k is _SPEC_BEGIN:
                append("SPEC_BEGIN")
            elif k is _SPEC_END:
                append("SPEC_END commit" if ev.commit else "SPEC_END squash")
            elif k is _DOMAIN_SWITCH:
                dom = ev.domain
                if dom is None or not 0 <= dom < DOMAIN_NONE:
                    raise _unformattable(start + len(out),
                                         "DOMAIN_SWITCH domain", dom)
                append(f"DOMAIN_SWITCH {dom}")
            elif _LINE_BREAKS.isdisjoint(ev.text):
                append(f"# {ev.text}")
            else:
                raise _unformattable(start + len(out),
                                     "comment holding a line break", ev.text)
        append("")
        parts.append("\n".join(out))
    return "".join(parts) or "\n"


@dataclass(slots=True)
class ReplayStats:
    """Counter snapshot after a replay.

    l1_hits + l1_miss_l2 + l1_miss_mem always equals loads.  Every
    field but the last two is the hierarchy counter of the same name.
    """
    loads: int = 0
    stores: int = 0
    l1_hits: int = 0
    l1_miss_l2: int = 0
    l1_miss_mem: int = 0
    sfill_inv_sent: int = 0
    sfill_inv_dropped_case_i: int = 0
    tagmiss_forward_nofill: int = 0
    loads_squashed: int = 0
    squashed_load_fraction: float = 0.0

    def check(self) -> None:
        assert self.l1_hits + self.l1_miss_l2 + self.l1_miss_mem == self.loads

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.FIELDS}


ReplayStats.FIELDS = tuple(f.name for f in fields(ReplayStats))


def replay(events: list[TraceEvent], hier: Hierarchy,
           engine: SpecEngine | None = None) -> ReplayStats:
    """Run a parsed trace against a hierarchy.

    Operations outside speculation windows commit as they go; inside a
    window they stack up behind the barrier until SPEC_END picks
    commit or squash.
    """
    if engine is None:
        engine = SpecEngine(hier)
    # bound per call, not per module: a tracer installed before the call
    # still wraps them
    issue_load = engine.issue_load
    issue_store = engine.issue_store
    resolve_to = engine.resolve_to
    current_domain = 0
    barrier = None
    try:
        for ev in events:
            k = ev.kind
            if k is _LOAD:
                dom = current_domain if ev.domain is None else ev.domain
                entry = issue_load(ev.addr, dom)
                if barrier is None:
                    resolve_to(entry.id)
            elif k is _STORE:
                dom = current_domain if ev.domain is None else ev.domain
                entry = issue_store(ev.addr, dom)
                if barrier is None:
                    resolve_to(entry.id)
            elif k is _SPEC_BEGIN:
                barrier = engine.issue_barrier()
            elif k is _SPEC_END:
                if ev.commit:
                    engine.commit_all()
                else:
                    engine.squash_from(barrier.id)
                barrier = None
            elif k is _DOMAIN_SWITCH:
                current_domain = ev.domain
    except WindowFullError:
        message = (f"speculation window holds more than {engine.capacity - 1} "
                   f"loads and stores (window_capacity {engine.capacity})")
        if ev.line_no:
            raise TraceParseError(ev.line_no, message) from None
        event_no = next(i for i, e in enumerate(events, 1) if e is ev)
        raise TraceParseError(0, message, event_no) from None
    engine.commit_all()

    loads, squashed = hier.loads, engine.loads_squashed
    stats = ReplayStats(
        *(getattr(hier, name) for name in ReplayStats.FIELDS[:-2]),
        squashed, (squashed / loads) if loads else 0.0)
    stats.check()
    if hier.debug_checks:
        hier.check_invariants()
    return stats


# -- synthetic workloads --

PROFILES = ("uniform-random", "pointer-chase", "conflict-heavy", "spec-mix")

_SYNTH_BASE = 0x40_0000

# pointer-chase builds its whole cycle up front, at about 40 B and one
# RNG draw per line: 1 << 22 lines take some 160 MiB and 2 s
POINTER_CHASE_MAX_LINES = 1 << 22
# a synthetic trace is held whole: 1 << 20 events take some 210 MiB and
# 3 s on conflict-heavy, the largest profile, and 155 MiB on spec-mix
# (CPython 3.11, 2-core Xeon VM)
SYNTH_MAX_EVENTS = 1 << 20

# conflict-heavy flips one tag bit per pair.  With 512 lines the
# mapping index covers address bits 6..14, so every flip below sits in
# the tag at k=0 and each 2-bit index widening absorbs the next flip
# bit, retiring that weight share of the tag conflicts (70.4% at k=2,
# then 91.5%, then 97.3%)
_CONFLICT_BITS = (15, 17, 19, 21)
_CONFLICT_WEIGHTS = (0.704, 0.211, 0.058, 0.027)


def synth_trace(profile: str, events: int, seed: int,
                p_squash: float = 0.1, store_fraction: float = 0.1,
                footprint_lines: int = 4096, domains: int = 1) -> list[TraceEvent]:
    """Generate a deterministic synthetic trace.

    `events` bounds the number of loads/stores emitted, and may not
    exceed SYNTH_MAX_EVENTS; structural directives (SPEC_BEGIN/SPEC_END)
    come on top.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; pick one of {PROFILES}")
    if events < 1:
        raise ValueError("need at least one event")
    if events > SYNTH_MAX_EVENTS:
        raise ValueError(
            f"events must be at most {SYNTH_MAX_EVENTS}, got {events}")
    for name, p in (("p_squash", p_squash), ("store_fraction", store_fraction)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    if footprint_lines < 1:
        raise ValueError(
            f"footprint_lines must be at least 1, got {footprint_lines}")
    if _SYNTH_BASE + 64 * (footprint_lines - 1) >= ADDRESS_LIMIT:
        raise ValueError(
            f"footprint_lines {footprint_lines} reaches past the "
            f"{ADDRESS_BITS}-bit address space")
    if (profile == "pointer-chase"
            and footprint_lines > POINTER_CHASE_MAX_LINES):
        raise ValueError(
            f"pointer-chase footprint_lines must be at most "
            f"{POINTER_CHASE_MAX_LINES}, got {footprint_lines}")
    # domain ids run 0..domains-1 and must stay below the reserved id
    if not 1 <= domains <= DOMAIN_NONE:
        raise ValueError(f"domains must be 1..{DOMAIN_NONE}, got {domains}")
    rng = Rng(seed)
    choose = rng.choose
    out: list[TraceEvent] = [TraceEvent(_COMMENT, None, None, True,
                                        f"synth {profile} seed={seed}")]
    append = out.append
    base = _SYNTH_BASE

    if profile == "uniform-random":
        next_u64 = rng.next_u64
        store_below = chance_threshold(store_fraction)
        for _ in range(events):
            addr = base + 64 * choose(footprint_lines)
            dom = choose(domains) if domains > 1 else 0
            append(TraceEvent(_STORE if next_u64() < store_below else _LOAD,
                              addr, dom))

    elif profile == "pointer-chase":
        # single random cycle over the footprint (Sattolo), so one lap
        # touches every line exactly once: no reuse, misses back to back
        perm = list(range(footprint_lines))
        for i in range(footprint_lines - 1, 0, -1):
            j = choose(i)
            perm[i], perm[j] = perm[j], perm[i]
        at = 0
        for _ in range(events):
            append(TraceEvent(_LOAD, base + 64 * at, 0))
            at = perm[at]

    elif profile == "conflict-heavy":
        # pairs (A, A^bit): the partner load runs speculatively and,
        # when the flipped bit still falls above the index field, lands
        # on the resident line's mapping entry with the wrong tag
        emitted = 0
        while emitted < events:
            a = base + 64 * choose(256)
            r = rng.next_u64() / 18446744073709551616.0
            bit = _CONFLICT_BITS[-1]
            acc = 0.0
            for b, w in zip(_CONFLICT_BITS, _CONFLICT_WEIGHTS):
                acc += w
                if r < acc:
                    bit = b
                    break
            append(TraceEvent(_LOAD, a, 0))
            append(TraceEvent(_SPEC_BEGIN))
            append(TraceEvent(_LOAD, a ^ (1 << bit), 0))
            append(TraceEvent(_SPEC_END, None, None, True))
            emitted += 2

    else:   # spec-mix
        next_u64 = rng.next_u64
        squash_below = chance_threshold(p_squash)
        emitted = 0
        while emitted < events:
            width = 2 + choose(7)
            squash = next_u64() < squash_below
            append(TraceEvent(_SPEC_BEGIN))
            for _ in range(width):
                append(TraceEvent(_LOAD, base + 64 * choose(footprint_lines),
                                  0))
            append(TraceEvent(_SPEC_END, None, None, not squash))
            emitted += width

    return out
