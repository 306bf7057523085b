"""Shared pytest setup.

With the CI environment variable set, hypothesis runs derandomized: each
property test draws the same examples on every run, so a property test
cannot fail in CI on an example no local run has seen.
"""

import os

import numpy as np
import pytest
from hypothesis import settings

from spdelab import SpaceTimeField, smooth_random_field

settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def nonrandom_field():
    """Seeded nonrandom test field: smooth_random_field averaged over the
    nodes of each level.  The node mean of tanh(w1) is 0, so what is
    left is the same sine modes and time ramp, equal at every node."""

    def make(grid, tree, seed):
        means = [a.mean(axis=1, keepdims=True) for a in smooth_random_field(grid, tree, seed).levels]
        return SpaceTimeField(grid, tree, [np.repeat(m, tree.n_nodes(k), axis=1)
                                           for k, m in enumerate(means)])

    return make
