import math

import pytest

from starcache.core import CacheGeometry, FlatMemory, Rng

_M64 = (1 << 64) - 1


def _ref_mix(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _ref_splitmix(state):
    """Independent textbook stepper used as the oracle."""
    state = (state + 0x9E3779B97F4A7C15) & _M64
    return state, _ref_mix(state)


class _RefRng:
    """One scalar step per draw: the oracle for Rng's whole API."""

    def __init__(self, seed):
        self.state = seed & _M64

    def next_u64(self):
        self.state, out = _ref_splitmix(self.state)
        return out

    def choose(self, n):
        return (self.next_u64() * n) >> 64

    def chance(self, p):
        return self.next_u64() < int(p * 2.0 ** 64)

    def gauss(self, mu, sigma):
        u1 = (self.next_u64() >> 11) * 2.0 ** -53
        u2 = (self.next_u64() >> 11) * 2.0 ** -53
        r = math.sqrt(-2.0 * math.log(1.0 - u1))
        return mu + sigma * r * math.cos(2.0 * math.pi * u2)

    def fork(self, label):
        if isinstance(label, str):
            h = len(label)
            data = label.encode("utf-8")
            for i in range(0, len(data), 8):
                h = _ref_mix(h ^ int.from_bytes(data[i:i + 8], "little"))
            label = h
        return _RefRng(_ref_mix(self.state ^ _ref_mix(label & _M64)))


def test_rng_matches_reference_stepper():
    for seed in (0, 1, 42, 0xDEADBEEF, _M64):
        rng = Rng(seed)
        state = seed
        for _ in range(5000):
            state, want = _ref_splitmix(state)
            assert rng.next_u64() == want


_CHOOSE_RANGES = (1, 2, 3, 7, 13, 256, 4096, 2**32 + 1, 2**63, _M64,
                  2**64, 2**64 + 3)


@pytest.mark.parametrize("seed", [0, 7, 0xDEADBEEF, _M64])
def test_rng_op_mix_matches_reference_across_blocks(seed):
    """Interleaved draws of every kind, with a fork taken after every
    draw, so forks land mid-block and right at each refill whatever
    the block sizes are."""
    pick = _RefRng(seed ^ 0x5EED)      # drives the mix, not under test
    rng, ref = Rng(seed), _RefRng(seed)
    for i in range(6000):
        op = pick.choose(5)
        if op == 0:
            n = _CHOOSE_RANGES[pick.choose(len(_CHOOSE_RANGES))]
            assert rng.choose(n) == ref.choose(n)
        elif op == 1:
            p = pick.choose(1001) / 1000
            assert rng.chance(p) == ref.chance(p)
        elif op == 2:
            assert rng.gauss(1.5, 2.0) == ref.gauss(1.5, 2.0)
        elif op == 3:
            assert rng.next_u64() == ref.next_u64()
        else:
            # a rejected call draws nothing
            with pytest.raises(ValueError):
                rng.choose(0)
            with pytest.raises(ValueError):
                rng.chance(1.5)
        label = i if i % 2 else f"fork-{i}"
        child, ref_child = rng.fork(label), ref.fork(label)
        assert [child.next_u64() for _ in range(3)] == \
               [ref_child.next_u64() for _ in range(3)]
    assert rng.next_u64() == ref.next_u64()


def test_rng_golden_values():
    # first draws for seeds 0 and 42, frozen from the reference stepper
    rng = Rng(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F
    assert Rng(42).next_u64() == 0xBDD732262FEB6E95


def test_choose_bounds_and_determinism():
    rng = Rng(9)
    seen = set()
    for _ in range(2000):
        v = rng.choose(13)
        assert 0 <= v < 13
        seen.add(v)
    assert seen == set(range(13))
    a = [Rng(5).choose(100) for _ in range(50)]
    b = [Rng(5).choose(100) for _ in range(50)]
    assert a == b


def test_choose_one_is_always_zero():
    rng = Rng(3)
    assert all(rng.choose(1) == 0 for _ in range(100))


def test_chance_extremes():
    rng = Rng(11)
    assert not any(rng.chance(0.0) for _ in range(200))
    assert all(rng.chance(1.0) for _ in range(200))


def test_chance_tracks_probability():
    rng = Rng(12)
    hits = sum(rng.chance(0.25) for _ in range(20000))
    assert abs(hits / 20000 - 0.25) < 0.02


def test_fork_streams_are_decorrelated_and_stable():
    root = Rng(77)
    a = root.fork("alpha")
    b = root.fork("beta")
    assert a.next_u64() != b.next_u64()
    # fork must not consume from the parent
    fresh = Rng(77)
    assert fresh.fork("alpha").next_u64() == Rng(77).fork("alpha").next_u64()
    # prefix-sharing labels still split
    assert Rng(1).fork("ab").next_u64() != Rng(1).fork("abc").next_u64()
    assert Rng(1).fork(0).next_u64() != Rng(1).fork(1).next_u64()


def test_gauss_moments():
    rng = Rng(21)
    xs = [rng.gauss() for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05
    ys = [Rng(21).gauss(10.0, 2.0) for _ in range(1)]
    assert math.isfinite(ys[0])


def test_geometry_default_shape():
    g = CacheGeometry(64, 512, 8)
    assert g.offset_bits == 6
    assert g.base_index_bits == 9
    assert g.index_bits == 9
    assert g.set_count == 64


def test_geometry_extra_index_bits():
    g = CacheGeometry(64, 512, 8, 4)
    assert g.index_bits == 13


def test_geometry_rejects_bad_shapes():
    with pytest.raises(ValueError):
        CacheGeometry(48, 512, 8)        # line size not a power of two
    with pytest.raises(ValueError):
        CacheGeometry(64, 500, 8)        # line count not a power of two
    with pytest.raises(ValueError):
        CacheGeometry(64, 512, 7)        # associativity does not divide
    with pytest.raises(ValueError):
        CacheGeometry(64, 512, 8, -1)


def test_flat_memory_read_write():
    mem = FlatMemory(64)
    assert bytes(mem.read_line(0x1000)) == bytes(64)
    data = bytes(range(64))
    mem.write_line(0x1000, data)
    assert bytes(mem.read_line(0x1000)) == data
    assert bytes(mem.read_line(0x1000 + 63)) == data   # any addr in the line
    assert 0x1000 in mem.nonzero_lines()
    with pytest.raises(ValueError):
        mem.write_line(0x1000, b"short")


def test_flat_memory_fetch_serves_the_level_above():
    mem = FlatMemory(64)
    mem.write_line(0x1000, bytes(range(64)))
    data, source = mem.fetch(0x1000 + 9, 0, 1)
    assert data is mem.read_line(0x1000)
    assert source == 3
    mem.writeback(0x1000, 0, bytes(64))
    assert mem.read_line(0x1000) == bytes(64)
