"""rng.pcg64_normal against numpy's Generator.normal, bit for bit.

numpy.random is the oracle here and nowhere in the package: the port must
give default_rng(SeedSequence(seed)).normal(size=n) at every seed a test
field is drawn with, through every branch of the ziggurat, from numpy's
own tables, and literal values pin it whatever numpy the tests run against.
"""

import base64
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from numpy.random import SeedSequence, default_rng

from spdelab import rng
from spdelab.harness import EXPERIMENTS, default_config

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
    # so a wrong table entry or sign bit on either branch shows
    calls = Counter()

    def counted(branch, fn):
        def call(x):
            calls[branch] += 1
            return fn(x)
        return call

    monkeypatch.setattr(rng, "exp", counted("wedge", math.exp))
    monkeypatch.setattr(rng, "log1p", counted("tail", math.log1p))
    n = 2**20
    got = rng.pcg64_normal(seed, n)
    assert np.array_equal(got.view(np.uint64), numpy_normal(seed, n).view(np.uint64))
    assert calls["wedge"] > 0 and calls["tail"] > 0, calls


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
