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
from spdelab import tree as tree_module

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


@pytest.fixture
def split_draws(monkeypatch):
    """Split every tree-bridged march into three groups of paths, whatever
    the CPU count: the calling thread and two threads the march starts."""
    monkeypatch.setattr(tree_module, "draw_threads", lambda: 3)


@pytest.fixture
def serial_draws(monkeypatch):
    """March every tree-bridged march as one group of paths in the calling
    thread, whatever the CPU count."""
    monkeypatch.setattr(tree_module, "draw_threads", lambda: 1)
