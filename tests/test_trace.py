import hashlib
import tracemalloc
from itertools import chain
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from starcache import trace
from starcache.config import RunConfig
from starcache.core import ADDRESS_LIMIT, DOMAIN_NONE, Rng
from starcache.trace import (_SYNTH_BASE, POINTER_CHASE_MAX_LINES, EventKind,
                             PROFILES, TraceEvent, TraceParseError,
                             format_trace, parse_trace, replay, synth_trace)


def _hier(model="sa-lru", **kw):
    cfg = RunConfig(model=model, **kw).validate()
    return cfg.build_hierarchy(Rng(3).fork("trace-test"))


def test_parse_basics():
    events = parse_trace(
        "# warmup\n"
        "L 0x1000\n"
        "S 2000 1\n"
        "DOMAIN_SWITCH 3\n"
        "SPEC_BEGIN\n"
        "L 0x3000\n"
        "SPEC_END squash\n"
        "\tS\t0X4a00 2\t\r\n"
        "#no  space\r\n"
        "L 0x5000\n")
    kinds = [e.kind for e in events]
    assert kinds == [EventKind.COMMENT, EventKind.LOAD, EventKind.STORE,
                     EventKind.DOMAIN_SWITCH, EventKind.SPEC_BEGIN,
                     EventKind.LOAD, EventKind.SPEC_END, EventKind.STORE,
                     EventKind.COMMENT, EventKind.LOAD]
    assert events[0].text == "warmup"
    assert events[1].addr == 0x1000 and events[1].domain is None
    assert events[2].addr == 0x2000 and events[2].domain == 1
    assert events[3].domain == 3
    assert events[6].commit is False
    assert events[7].addr == 0x4A00 and events[7].domain == 2
    assert events[8].text == "no  space"
    assert events[9].addr == 0x5000
    assert [e.line_no for e in events] == [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]


def test_parse_blank_lines_skipped():
    assert parse_trace("\n\n  \nL 0x40\n") and len(parse_trace("\n\nL 0x40\n")) == 1


@pytest.mark.parametrize("text,line,fragment", [
    ("L zz", 1, "bad address"),
    ("L zz x", 1, "bad address"),
    ("L 0x1000000000000 x", 1, "48-bit"),
    ("L 0x1000000000000", 1, "48-bit"),
    ("L 0x1000 x", 1, "bad domain"),
    ("L 0x1000 255", 1, "out of range"),
    ("L 0x1000 1 2", 1, "expected"),
    # only ASCII hex (optional 0x/0X) and ASCII decimal domains
    ("L \u0664\u0660 \u0661", 1, "bad address"),
    ("L 0x4_0 0_1", 1, "bad address"),
    ("S +0x40 +1", 1, "bad address"),
    ("L -0x40", 1, "bad address"),
    ("L 0x 1", 1, "bad address"),
    ("L 0x40 0_1", 1, "bad domain"),
    ("S 0x40 +1", 1, "bad domain"),
    ("L 0x40 -1", 1, "bad domain"),
    ("L 0x40 \u0661", 1, "bad domain"),
    ("DOMAIN_SWITCH +2", 1, "bad domain"),
    ("L\n", 1, "expected"),
    ("SPEC_BEGIN now", 1, "no arguments"),
    ("SPEC_BEGIN\nSPEC_BEGIN", 2, "line 1"),
    ("SPEC_END commit", 1, "without SPEC_BEGIN"),
    ("SPEC_BEGIN\nSPEC_END maybe", 2, "commit|squash"),
    ("L 0x40\nSPEC_BEGIN\nL 0x80", 2, "never closed"),
    ("DOMAIN_SWITCH", 1, "expected"),
    ("JUMP 0x40", 1, "unknown directive"),
])
def test_parse_errors(text, line, fragment):
    with pytest.raises(TraceParseError) as info:
        parse_trace(text)
    assert info.value.line_no == line
    assert fragment in str(info.value)


def _parse_in_chunks(text, chunk):
    """parse_trace's events, or its error's message and line, with the
    chunk size set to `chunk` characters."""
    with mock.patch.object(trace, "_CHUNK", chunk):
        try:
            return parse_trace(text)
        except TraceParseError as err:
            return str(err), err.line_no


_BREAKS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
           "\u2028", "\u2029"]
_LINES = ["L 0x40", "S 40 1", "\tL 0X4a00 2\t", "L 0x40 255", "L zz", "L",
          "# a comment", "#", "SPEC_BEGIN", "SPEC_END commit",
          "SPEC_END squash", "SPEC_END maybe", "DOMAIN_SWITCH 2",
          "DOMAIN_SWITCH x", "JUMP 0x40", "", "  "]
_TEXTS = st.builds(
    "".join,
    st.lists(st.sampled_from(_LINES) | st.sampled_from(_BREAKS), max_size=40))


@settings(derandomize=True, max_examples=400, database=None, deadline=None)
@given(text=_TEXTS, chunk=st.integers(1, 12))
@example(text="L 0x40\r\nL 0x80\r\n", chunk=7)      # CRLF across the edge
@example(text="L 0x40\rSPEC_BEGIN\x85L 0x80", chunk=1)  # no "\n" at all
def test_parse_in_chunks_matches_one_chunk(text, chunk):
    with mock.patch.object(trace, "_CHUNK", chunk):
        lines = list(chain.from_iterable(map(str.splitlines,
                                             trace._chunks(text))))
    assert lines == text.splitlines()
    assert (_parse_in_chunks(text, chunk)
            == _parse_in_chunks(text, len(text) + 1))


def test_parse_holds_one_chunk_and_one_int_per_address():
    text = format_trace(synth_trace("spec-mix", 60_000, 1, p_squash=0.111,
                                    footprint_lines=_L2_LINES))
    tracemalloc.start()
    try:
        events = parse_trace(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beyond the events: one chunk's lines and the address table
    assert peak <= 1.1 * retained + trace._CHUNK
    addrs = [ev.addr for ev in events if ev.addr is not None]
    assert len({id(a) for a in addrs}) == len(set(addrs)) == _L2_LINES


def test_format_holds_about_twice_its_text():
    events = synth_trace("spec-mix", 60_000, 1, p_squash=0.111,
                         footprint_lines=_L2_LINES)
    tracemalloc.start()
    try:
        text = format_trace(events)
        size, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size >= len(text)
    # the joined chunks and their join, and one chunk's lines
    assert peak <= 2.2 * size


def test_format_writes_a_newline_for_no_events():
    assert format_trace([]) == "\n"
    assert parse_trace(format_trace([])) == []


def test_line_breaks_are_those_splitlines_knows():
    every = "".join(map(chr, range(0x110000)))
    assert trace._LINE_BREAKS == {
        line[-1] for line in every.splitlines(keepends=True)[:-1]}


@pytest.mark.parametrize("bad,fragment", [
    (TraceEvent(EventKind.LOAD), "L address None"),
    (TraceEvent(EventKind.STORE), "S address None"),
    (TraceEvent(EventKind.LOAD, ADDRESS_LIMIT), "L address 281474976710656"),
    (TraceEvent(EventKind.STORE, -64, 0), "S address -64"),
    (TraceEvent(EventKind.LOAD, 0x40, DOMAIN_NONE), "L domain 255"),
    (TraceEvent(EventKind.STORE, 0x40, -1), "S domain -1"),
    (TraceEvent(EventKind.DOMAIN_SWITCH), "DOMAIN_SWITCH domain None"),
    (TraceEvent(EventKind.DOMAIN_SWITCH, domain=DOMAIN_NONE),
     "DOMAIN_SWITCH domain 255"),
    *[(TraceEvent(EventKind.COMMENT, text=f"one{br}two"), "line break")
      for br in _BREAKS],
])
def test_format_refuses_what_parse_rejects(bad, fragment):
    good = TraceEvent(EventKind.LOAD, 0x40, 0)
    # past the first chunk, so the index counts every chunk before it
    events = [good] * (trace._FORMAT_CHUNK + 2) + [bad, good]
    with pytest.raises(ValueError,
                       match=f"^event {trace._FORMAT_CHUNK + 3}: ") as info:
        format_trace(events)
    assert fragment in str(info.value)


def test_format_drops_the_whitespace_around_a_comment():
    text = format_trace([TraceEvent(EventKind.COMMENT, text="  padded \t")])
    assert text == "#   padded \t\n"
    assert parse_trace(text)[0].text == "padded"


def test_replay_rejects_a_window_longer_than_the_engine():
    body = "SPEC_BEGIN\n" + "L 0x40\n" * 63 + "SPEC_END commit\n"
    assert replay(parse_trace(body), _hier()).loads == 63
    with pytest.raises(TraceParseError) as info:
        replay(parse_trace("SPEC_BEGIN\n" + "S 0x40\n" * 64
                           + "SPEC_END squash\n"), _hier())
    assert info.value.line_no == 65
    assert "more than 63 loads and stores" in str(info.value)


def test_format_parse_round_trip():
    rng = Rng(11)
    for profile in PROFILES:
        events = synth_trace(profile, 200, seed=rng.next_u64() % 1000)
        back = parse_trace(format_trace(events))
        assert len(back) == len(events)
        for a, b in zip(events, back):
            assert (a.kind, a.addr, a.domain, a.commit) == \
                   (b.kind, b.addr, b.domain, b.commit)


def test_replay_counts_and_identity():
    hier = _hier()
    stats = replay(parse_trace(
        "L 0x1000\n"
        "L 0x1000\n"
        "S 0x2000\n"
        "SPEC_BEGIN\n"
        "L 0x3000\n"
        "SPEC_END squash\n"
        "L 0x4000\n"), hier)
    assert stats.loads == 4 and stats.stores == 1
    assert stats.l1_hits == 1
    assert stats.l1_hits + stats.l1_miss_l2 + stats.l1_miss_mem == stats.loads
    assert stats.loads_squashed == 1
    assert stats.squashed_load_fraction == 0.25


def test_replay_domain_switch_applies():
    hier = _hier("star-farr")
    replay(parse_trace("DOMAIN_SWITCH 2\nL 0x5000\nL 0x6000 4\n"), hier)
    assert hier.l1.find(0x5000, 2) is not None
    assert hier.l1.find(0x6000, 4) is not None
    assert hier.l1.find(0x5000, 0) is None


def test_replay_squash_scrubs_on_hardened():
    hier = _hier("star-news")
    stats = replay(parse_trace(
        "SPEC_BEGIN\nL 0x7000\nSPEC_END squash\nL 0x7000\n"), hier)
    assert stats.sfill_inv_sent == 1
    assert stats.l1_hits == 0          # the reload cannot profit from wrong path


def test_replay_squash_leaves_hit_on_baseline():
    hier = _hier("sa-lru")
    stats = replay(parse_trace(
        "SPEC_BEGIN\nL 0x7000\nSPEC_END squash\nL 0x7000\n"), hier)
    assert stats.l1_hits == 1


def test_synth_rejects_bad_input():
    with pytest.raises(ValueError):
        synth_trace("zigzag", 100, 1)
    with pytest.raises(ValueError):
        synth_trace("uniform-random", 0, 1)
    for bad in (dict(p_squash=-0.1), dict(p_squash=1.01),
                dict(store_fraction=2.0), dict(footprint_lines=0),
                dict(domains=0), dict(domains=256)):
        with pytest.raises(ValueError):
            synth_trace("uniform-random", 100, 1, **bad)
    ids = {e.domain for e in synth_trace("uniform-random", 2000, 1,
                                         domains=255)
           if e.kind is EventKind.LOAD}
    assert max(ids) == 254          # below the reserved DOMAIN_NONE


def test_synth_footprint_stays_inside_the_address_space():
    # the last footprint line must lie below ADDRESS_LIMIT
    widest = (ADDRESS_LIMIT - 1 - _SYNTH_BASE) // 64 + 1
    for profile in ("uniform-random", "spec-mix"):
        events = synth_trace(profile, 200, 1, footprint_lines=widest)
        assert all(e.addr < ADDRESS_LIMIT for e in events
                   if e.addr is not None)
        with pytest.raises(ValueError, match="address space"):
            synth_trace(profile, 200, 1, footprint_lines=widest + 1)


def test_pointer_chase_footprint_has_a_line_limit():
    # rejected before the cycle is built, so no large list is made here
    with pytest.raises(ValueError, match=str(POINTER_CHASE_MAX_LINES)):
        synth_trace("pointer-chase", 10, 1,
                    footprint_lines=POINTER_CHASE_MAX_LINES + 1)


def test_synth_deterministic_per_seed():
    a = synth_trace("spec-mix", 500, seed=9)
    b = synth_trace("spec-mix", 500, seed=9)
    c = synth_trace("spec-mix", 500, seed=10)
    assert format_trace(a) == format_trace(b)
    assert format_trace(a) != format_trace(c)


def test_synth_event_budget_counts_memory_ops():
    for profile in PROFILES:
        events = synth_trace(profile, 300, seed=4)
        ops = sum(1 for e in events
                  if e.kind in (EventKind.LOAD, EventKind.STORE))
        assert 300 <= ops <= 308    # windows may overshoot by one width


def test_pointer_chase_is_a_cycle():
    n = 64
    events = synth_trace("pointer-chase", n, seed=5, footprint_lines=n)
    addrs = [e.addr for e in events if e.kind is EventKind.LOAD]
    assert len(set(addrs)) == n     # one full lap, no reuse


def test_conflict_heavy_pair_structure():
    events = [e for e in synth_trace("conflict-heavy", 400, seed=6)
              if e.kind is not EventKind.COMMENT]
    assert len(events) % 4 == 0
    for i in range(0, len(events), 4):
        first, begin, second, end = events[i:i + 4]
        assert first.kind is EventKind.LOAD
        assert begin.kind is EventKind.SPEC_BEGIN
        assert second.kind is EventKind.LOAD
        assert end.kind is EventKind.SPEC_END and end.commit
        assert (first.addr ^ second.addr).bit_count() == 1
        bit = (first.addr ^ second.addr).bit_length() - 1
        assert bit in (15, 17, 19, 21)


def test_spec_mix_squash_fraction_tracks_probability():
    hier = _hier()
    stats = replay(synth_trace("spec-mix", 20_000, seed=7, p_squash=0.25), hier)
    assert abs(stats.squashed_load_fraction - 0.25) < 0.02
    assert stats.loads_squashed > 0


def test_replay_debug_checks_run_clean():
    hier = _hier("star-news", debug_checks=True)
    replay(synth_trace("spec-mix", 3_000, seed=8, footprint_lines=512), hier)


def test_stats_field_list_matches_dict():
    hier = _hier()
    stats = replay(synth_trace("uniform-random", 100, seed=9), hier)
    d = stats.as_dict()
    assert tuple(d) == stats.FIELDS


# The text every synthetic trace formats to, pinned by SHA-256: the
# golden replay cases' parameters for every profile, and the two traces
# the benchmark's replay workload builds (L2-sized footprints at the
# default 4096-line L2) on its tuning and held-out seeds.
_GOLDEN_SYNTH = dict(events=8000, seed=11, footprint_lines=1024, domains=3,
                     store_fraction=0.3, p_squash=0.25)
_L2_LINES = RunConfig().l2_lines
_BENCH_SYNTH = {
    "uniform-random": dict(events=20_000, store_fraction=0.3,
                           footprint_lines=4 * _L2_LINES, domains=2),
    "spec-mix": dict(events=60_000, p_squash=0.111,
                     footprint_lines=_L2_LINES),
}
_SYNTH_CASES = {f"golden-{p}": (p, _GOLDEN_SYNTH) for p in PROFILES}
_SYNTH_CASES.update({f"bench-{p}-seed{seed}": (p, dict(params, seed=seed))
                     for p, params in _BENCH_SYNTH.items()
                     for seed in (1, 2302)})
SYNTH_TEXT_SHA256 = {
    "golden-uniform-random":
        "6df9e9c05562bcea1c92c23e79be172d0adc5c3125418597c802bd835a6f9a59",
    "golden-pointer-chase":
        "7a20a538666d0fdf915ce8eb6263fdcdc095b14ac4c7fe77269afd79a0265ff9",
    "golden-conflict-heavy":
        "10a04f472943236a8e130cb4fb648daeefc02d28e3086c30c9d063852b98881d",
    "golden-spec-mix":
        "ab7b4637194b797f28ad528d0195a60da5a5c7ede7e067e330b8f07c75efea2a",
    "bench-uniform-random-seed1":
        "479b34fd99fba11df88cf155512817ccd462b574d8376e94da55cb728f2349bc",
    "bench-spec-mix-seed1":
        "f727e9e82147675ae754891a5763630000182aa43bfeaf7998ad6126afc6c133",
    "bench-uniform-random-seed2302":
        "cec4e434c53cde3eb40daad33459b7113c29939f6d1d22f0794355410c564791",
    "bench-spec-mix-seed2302":
        "258e41914b3fce3a56680705f6a99bf72c924dcbf018ea65e56ec04348eb045e",
}


@pytest.mark.parametrize("case", sorted(SYNTH_TEXT_SHA256))
def test_synth_trace_text_is_pinned(case):
    profile, params = _SYNTH_CASES[case]
    text = format_trace(synth_trace(profile, **params))
    assert hashlib.sha256(text.encode()).hexdigest() == SYNTH_TEXT_SHA256[case]
