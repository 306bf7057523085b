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
    """Seeded nonrandom test field on space (the w1 lattice, or a tree it is
    gathered onto): smooth_random_field on the lattice averaged over each
    level's states with their probabilities tree.weights(k).  The mean of
    tanh(w1) is 0, so what is left is the same sine modes and time ramp, equal
    at every state."""

    def make(grid, space, seed):
        lattice = space.lattice
        means = [a @ lattice.weights(k) for k, a in
                 enumerate(smooth_random_field(grid, lattice, seed).levels)]
        return SpaceTimeField(grid, lattice, [np.repeat(m[:, None], k + 1, axis=1)
                                              for k, m in enumerate(means)]).on(space)

    return make
