"""The package's random draws against their oracles, bit for bit:
numpy's SeedSequence, PCG64 and Generator.normal and scipy's ndtri.

numpy.random and scipy are oracles here and nowhere in the package: each
port must give the oracle's bits at every seed a default run draws with,
through every branch, and literal values pin the streams whatever numpy
the tests run against.
"""

import base64
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from numpy.random import PCG64, SeedSequence, default_rng
from scipy.special import ndtri

from spdelab import free_paths, rng
from spdelab.harness import EXPERIMENTS, _representation_estimates, default_config
from spdelab.montecarlo import CHUNK
from spdelab.rng import (_GOLDEN, _MIX1, _MIX2, _pcg64_seeded, counter_normals, pcg64_integers,
                         pcg64_uniform, seed_key)

# the seeds smooth_random_field is given: an experiment's mc.seed, and
# (seed, 1), (seed, 99), (seed, i) for field i, and adjoint-suite's
# seed_pair (seed, 2 i), (seed, 2 i + 1) for draw i; ints past 2**32 too
DEFAULT_SEEDS = sorted({default_config(name).mc["seed"] for name in EXPERIMENTS})
FIELD_SEEDS = [*range(40), 2**40 + 7, *DEFAULT_SEEDS,
               *[(seed, tag) for seed in DEFAULT_SEEDS for tag in (*range(12), 99)]]


def numpy_normal(seed, n):
    return default_rng(SeedSequence(seed)).normal(size=n)


def test_pcg64_normal_has_numpys_bits_at_every_field_seed():
    for seed in FIELD_SEEDS:
        got = rng.pcg64_normal(seed, 12)
        assert got.dtype == np.float64 and got.shape == (12,), seed
        assert np.array_equal(got.view(np.uint64), numpy_normal(seed, 12).view(np.uint64)), seed


@pytest.mark.parametrize("seed", [0, (2468, 99)])
def test_a_long_draw_has_numpys_bits_through_the_wedges_and_the_tail(seed, monkeypatch):
    # about 0.7% of tries fall past a layer's box and 0.03% past the base
    # layer's: count the wedge tests (exp) and the tail's uniforms (log1p),
    # so a wrong table entry or sign bit on either branch shows, and the
    # PCG64 draws, since the first n + 8 outputs run out and the stream
    # goes on from a longer draw
    calls = Counter()

    def counted(branch, fn):
        def call(*args):
            calls[branch] += 1
            return fn(*args)
        return call

    monkeypatch.setattr(rng, "exp", counted("wedge", math.exp))
    monkeypatch.setattr(rng, "log1p", counted("tail", math.log1p))
    monkeypatch.setattr(rng, "_pcg64_outputs", counted("outputs", rng._pcg64_outputs))
    n = 2**20
    got = rng.pcg64_normal(seed, n)
    assert np.array_equal(got.view(np.uint64), numpy_normal(seed, n).view(np.uint64))
    assert calls["wedge"] > 0 and calls["tail"] > 0 and calls["outputs"] > 1, calls


def test_the_tables_are_numpys_bytes():
    raw = base64.b64decode(rng._ZIGGURAT)
    assert len(raw) == 3 * 256 * 8
    assert hashlib.sha256(raw).hexdigest() == (
        "d46841a090f638a74c6bd112345fe681089be798d725b251129f062cad5521a3")
    ki, wi, fi = rng._tables()
    # ziggurat_constants.h's ziggurat_nor_r, the base layer's edge
    assert wi[255] * 2.0**52 == 3.6541528853610087963519472518
    assert fi[0] == 1.0 and ki[1] == 0


def test_pcg64_normal_pins_its_first_values():
    # literal values, which hold whatever numpy a later test runs against:
    # the amplitudes of adjoint-suite's first test field and of
    # solvability-R's phi
    assert rng.pcg64_normal((11, 0), 4).tolist() == [
        0.03419276725318417, 1.3597475403099617, 1.2247210785859324, -0.5103070767876675]
    assert rng.pcg64_normal(2468, 4).tolist() == [
        -0.7530930014475671, 0.07424002972397944, 0.7406462923201845, 0.7332340434687238]


def seed_sequence_key(seed):
    return SeedSequence((seed,)).generate_state(1, np.uint64)[0]


def default_chunk_seeds():
    """Every chunk seed the seven default runs build: feynman-kac-nonrandom's
    (seed, 0xF0, i), density-64-65's conditional (seed, 0xC0, i) and
    unconditional ((seed, 65), 0xF0, i), and representation-random's
    ((seed, tag, ix), 0xF0, i); the other four draw no normals."""
    def chunks(cfg):
        return range(-(-cfg.mc["paths"] // CHUNK))

    fk, dens = default_config("feynman-kac-nonrandom"), default_config("density-64-65")
    rep = default_config("representation-random")
    seeds = [(fk.mc["seed"], 0xF0, i) for i in chunks(fk)]
    seeds += [(dens.mc["seed"], 0xC0, i) for i in chunks(dens)]
    seeds += [((dens.mc["seed"], 65), 0xF0, i) for i in chunks(dens)]
    seeds += [((rep.mc["seed"], tag, ix), 0xF0, i)
              for tag, ix, _ in _representation_estimates(rep, nodes=True) for i in chunks(rep)]
    return seeds


def test_seed_key_has_the_bits_of_the_seed_sequence():
    # rng.seed_key ports SeedSequence((seed,)).generate_state(1, np.uint64)[0]
    # to Python ints: random tuples of up to 14 words (the pool holds 4),
    # nesting, ints past 2**32 and 2**64, numpy integers, the empty seeds,
    # and every chunk seed of the default runs
    rng = np.random.default_rng(20240)
    seeds = [tuple(int(v) for v in rng.integers(0, 2**62, size=rng.integers(0, 8)))
             for _ in range(2000)]
    seeds += [[[3, [4]], 2**40], [(), [[], [0]]], (((1,),),), [[2**33, 5], (7, [2**65 + 9])]]
    seeds += [2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**64, 2**70, 2**200 + 1]
    seeds += [np.int64(5), np.uint32(2**32 - 1), np.uint64(2**63 + 7), [np.int8(3), np.uint16(9)]]
    seeds += [0, [], [0], ((),)]
    chunk_seeds = default_chunk_seeds()
    assert len(chunk_seeds) == 4 + 4 + 4 + 10
    for seed in seeds + chunk_seeds:
        key = seed_key(seed)
        assert type(key) is np.uint64 and key == seed_sequence_key(seed), seed


def test_seed_key_refuses_what_the_seed_sequence_refuses():
    for seed in (-1, [3, -2], 1.5):
        with pytest.raises((TypeError, ValueError)):
            seed_sequence_key(seed)
        with pytest.raises((TypeError, ValueError)):
            seed_key(seed)


# seeds of the PCG64 port: an int, a tuple, nested tuples (a chunk's start
# points are seeded (chunk seed, 0xA11)) and ints past 2**32
PCG_SEEDS = [5, (12, 3), (97531, 0xA11), ((97531, 65, 2), 0xA11), 2**40 + 7,
             ((2**33, (7, 2**65 + 9)), 0x1EAF)]
# and the streams every default run draws: each chunk's start points
# (chunk seed, 0xA11) and sampled leaves (chunk seed, 0x1EAF)
CHUNK_SEEDS = default_chunk_seeds()
START_SEEDS = PCG_SEEDS + [(seed, 0xA11) for seed in CHUNK_SEEDS]
LEAF_SEEDS = PCG_SEEDS + [(seed, 0x1EAF) for seed in CHUNK_SEEDS]


@pytest.mark.parametrize("seed", PCG_SEEDS)
def test_the_pcg64_port_seeds_numpys_state(seed):
    # numpy's srandom from SeedSequence(seed).generate_state(4, np.uint64)
    state = PCG64(SeedSequence(seed)).state["state"]
    assert _pcg64_seeded(seed) == (state["state"], state["inc"])


@pytest.mark.parametrize("seed", START_SEEDS)
def test_pcg64_uniform_has_numpys_bits(seed):
    # n from one state, past the Python-stepped states, and odd sizes around
    # the doubling passes and a chunk of montecarlo.CHUNK paths
    for n in (1, 2, 3, 4097, 25_000, 25_001):
        expected = default_rng(SeedSequence(seed)).uniform(size=n)
        got = pcg64_uniform(seed, n)
        assert got.dtype == np.float64 and got.shape == (n,), n
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64)), n


@pytest.mark.parametrize("seed", LEAF_SEEDS)
def test_pcg64_integers_have_numpys_values(seed):
    # a power-of-two range: no draw at b = 0, 32-bit words up to b = 32 (an
    # odd n leaves one half unused), whole outputs past it, up to 63 bits
    for bits in (0, 1, 10, 31, 32, 33, 63):
        for n in (1, 3, 4097, 25_001):
            expected = default_rng(SeedSequence(seed)).integers(0, 2**bits, size=n)
            got = pcg64_integers(seed, 2**bits, n)
            assert got.dtype == expected.dtype == np.int64, (bits, n)
            assert np.array_equal(got, expected), (bits, n)


def test_pcg64_port_pins_its_first_values():
    # literal values, which hold whatever numpy a later test runs against:
    # density-64-65's start points of conditional chunk 0 and leaves of
    # unconditional chunk 0 (10 bits), and 63-bit leaves of the same stream
    assert pcg64_uniform(((97531, 0xC0, 0), 0xA11), 4).tolist() == [
        0.09609360032148728, 0.8138972619407319, 0.7490538117713543, 0.5901065118039391]
    leaf_seed = (((97531, 65), 0xF0, 0), 0x1EAF)
    assert pcg64_integers(leaf_seed, 2**10, 6).tolist() == [667, 203, 633, 329, 488, 116]
    assert pcg64_integers(leaf_seed, 2**63, 2).tolist() == [1831907431222281470,
                                                            2966646904674919304]


def _counter_of_hash(key, h):
    """The counter whose SplitMix64 hash under key is h: each xorshift and
    each odd multiply of the finalizer is invertible mod 2^64."""
    mask = 2**64 - 1

    def unshift(x, s):
        y = x
        for _ in range(64 // s):
            y = x ^ (y >> s)
        return y

    for shift, mult in ((31, _MIX2), (27, _MIX1), (30, None)):
        h = unshift(h, shift)
        if mult is not None:
            h = h * pow(int(mult), -1, 2**64) & mask
    return (h - int(key)) * pow(int(_GOLDEN), -1, 2**64) & mask


def test_counter_normals_top_counter_is_finite():
    # the hashes 2^64 - 2^11 .. 2^64 - 1 share the top 53 bits, which round
    # to u = 1; the clamp moves only them, and the next hash keeps u = 1 - 2^-52
    key = free_paths(1.0, M=1, sigma=[1.0], dt_mc=0.5, seed=7)._key
    hashes = (2**64 - 1, 2**64 - 2**11, 2**64 - 2**11 - 1)
    z = counter_normals(key, np.array([_counter_of_hash(key, h) for h in hashes], dtype=np.uint64))
    assert z[0] == z[1] == ndtri(1.0 - 2.0**-53) < np.inf
    assert z[2] == ndtri(1.0 - 2.0**-52) < z[0]


def cephes_ndtri(u):
    """Cephes' ndtri of one u, step for step in Python floats, with the C
    library's log (math.log): polevl and p1evl by Horner's rule."""
    def horner(x, coeffs, monic=False):
        coeffs = [float(c) for c in coeffs]
        acc = x + coeffs[0] if monic else coeffs[0]
        for c in coeffs[1:]:
            acc = acc * x + c
        return acc

    t = rng
    y, negate = u, True
    if y > 1.0 - t._EXP_M2:
        y, negate = 1.0 - y, False
    if y > t._EXP_M2:
        y = y - 0.5
        y2 = y * y
        x = y + y * (y2 * horner(y2, t._P0) / horner(y2, t._Q0, monic=True))
        return x * t._S2PI
    x = math.sqrt(-2.0 * math.log(y))
    x0 = x - math.log(x) / x
    z = 1.0 / x
    P, Q = (t._P1, t._Q1) if x < 8.0 else (t._P2, t._Q2)
    x = x0 - z * horner(z, P) / horner(z, Q, monic=True)
    return -x if negate else x


def test_ndtri_has_the_bits_of_scipy(monkeypatch):
    # 2^21 hashed uniforms, the uniforms of the draws, and the branch edges:
    # the centre is scipy's bits; the tails are within 8 ulp, and every tail
    # value that differs is the cephes steps' with the C library's log, so
    # numpy's log is the only difference
    monkeypatch.setattr(rng, "ndtri", lambda u, out, scratch: out)
    key = free_paths(1.0, M=1, sigma=[1.0], dt_mc=0.5, seed=47)._key
    hashed = counter_normals(key, np.arange(2**21, dtype=np.uint64))
    monkeypatch.undo()
    e2 = rng._EXP_M2
    edges = [e2, 1.0 - e2, 0.5, 2.0**-54, 2.0**-53, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
    edges += [np.nextafter(e, side) for e in (e2, 1.0 - e2) for side in (0.0, 1.0)]
    u = np.concatenate([hashed, edges])
    assert np.all((u > 0.0) & (u < 1.0))
    z, expected = rng.ndtri(u), ndtri(u)
    bits, expected_bits = z.view(np.int64), expected.view(np.int64)
    centre = (u > e2) & (u <= 1.0 - e2)
    assert 0.7 < centre.mean() < 0.75
    assert np.array_equal(bits[centre], expected_bits[centre])
    assert np.all(np.sign(z) == np.sign(u - 0.5))
    assert np.abs(bits - expected_bits).max() <= 8
    differ = (bits != expected_bits).nonzero()[0]
    assert all(cephes_ndtri(float(u[i])) == expected[i] for i in differ), differ
    # the smallest uniform of a draw, 2^-54, and the largest reach x >= 8
    assert np.all(np.abs(z[-len(edges):][[3, 6]]) > 8.0)
    assert all(cephes_ndtri(float(e)) == ndtri(e) for e in edges)
    # the values are written to out, which may be u, as counter_normals
    # calls it with the counters' bytes as scratch
    out = np.empty_like(u)
    assert rng.ndtri(u, out=out) is out and np.array_equal(out, z)
    block = u[:20_000].reshape(2, -1).copy()
    scratch = np.empty(block.shape, dtype=np.uint64)
    assert rng.ndtri(block, out=block, scratch=scratch.view(np.float64)) is block
    assert np.array_equal(block.reshape(-1), z[:20_000])


def allocating_counter_normals(key, counters):
    """counter_normals as written before it filled its output in place: a
    temporary per shift and a new array for the uniforms.  It maps them
    through the package's own ndtri, so the test compares the two forms of
    the hash alone; test_ndtri_has_the_bits_of_scipy holds ndtri to scipy's."""
    z = counters
    z *= _GOLDEN
    z += key
    z ^= z >> np.uint64(30)
    z *= _MIX1
    z ^= z >> np.uint64(27)
    z *= _MIX2
    z ^= z >> np.uint64(31)
    u = (z >> np.uint64(11)).astype(np.float64)
    u += 0.5
    u *= 2.0**-53
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return rng.ndtri(u, out=u)


def test_counter_normals_in_place_match_the_allocating_form():
    # random counters and the counters of the top 2^11 + 2 hashes, where the
    # uniforms round to 1 and are clamped; two arguments or an output row
    key = free_paths(1.0, M=1, sigma=[1.0], dt_mc=0.5, seed=7)._key
    top = [_counter_of_hash(key, h) for h in range(2**64 - 2**11 - 2, 2**64)]
    counters = np.concatenate([
        np.random.default_rng(46).integers(0, 2**64, size=5000, dtype=np.uint64),
        np.array(top, dtype=np.uint64)])
    expected = allocating_counter_normals(key, counters.copy())
    assert np.isfinite(expected).all()
    assert np.array_equal(counter_normals(key, counters.copy()), expected)
    block = np.empty((2, counters.size))
    row = block[1]
    assert counter_normals(key, counters.copy(), out=row) is row
    assert np.array_equal(block[1], expected)
