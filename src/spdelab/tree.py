"""Discrete model of the driving Wiener process.

The first d components of the Wiener process live on a complete binomial
scenario tree with increments +-sqrt(dt) per component and step.  On this
tree conditional expectation, the Ito integral and the martingale
(Clark-type) representation are computed exactly, so probabilistic
identities hold to round-off and discretization error is confined to space
and time.  Fine-time Monte Carlo increments are the scalar noise sigma.dW,
one normal per path and fine step, with the first d Wiener components
bridged through a designated leaf path or per-path leaf draws; they are
drawn one coarse step at a time, for the paths still being marched.  Each
normal is a fixed function of (key, counter), so a tree-bridged block's fine
steps are split over one shared pool of draw threads, one per CPU the
process may run on, and the block holds the same bits for any CPU count.

Node addressing: the node with index i at level k has parent i // 2**d and
reaches child i * 2**d + j through branch digit j; bit c of the digit
encodes the sign of increment component c (bit 0 -> +sqrt(dt)).

For d = 1 the `Lattice` recombines the tree by its first component (Cox,
Ross and Rubinstein 1979): state j of level k counts the down steps, so
w1 = sqrt(dt) (k - 2j).  Both classes give the solvers the level structure:
`child(nxt, b, n_k)`, child b of every level-k node as an (nx, n_k) view of
level k+1; `merge(rhs)`, level k+1 from per-child values (nx, n_k, br); and
`weights(k)`, the level probabilities P_k.
"""

from __future__ import annotations

import math
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np
from scipy.special import ndtri

# the most states (nodes summed over the levels) one level's state space may
# hold: the d = 1 tree at 16 steps.  Trees stop at 16 steps when d = 1 and at
# 8 when d = 2; the w1 lattice, (N + 1)(N + 2) / 2 states, at 510.
MAX_STATES = 2**17 - 1


class TreeError(ValueError):
    """Raised for invalid tree construction or mis-shaped tree data."""


def _size_guard(what: str, n_steps: int, states: int | None) -> None:
    """TreeError if a level of n_steps steps would hold more than MAX_STATES
    states; states is its closed-form count, or None past 2**63, where the
    builders do not form it."""
    if states is None or states > MAX_STATES:
        held = "more than 2**63" if states is None else f"{states:,}"
        raise TreeError(f"{what} of n_steps={n_steps} would hold {held} states, past the "
                        f"size guard of {MAX_STATES:,} states")


def seed_entropy(seed, *extra) -> tuple:
    """Canonical entropy tuple for a seed that may itself be a tuple.

    This is the documented splitting rule: derived streams append fixed
    integer tags to the user seed, so chunked estimators are reproducible
    and independent of worker count.
    """
    if isinstance(seed, (tuple, list)):
        return tuple(int(s) for s in seed) + tuple(extra)
    return (int(seed),) + tuple(extra)


class TreeNode(NamedTuple):
    level: int
    index: int


@dataclass(frozen=True)
class ScenarioTree:
    d: int
    n_steps: int
    horizon: float
    dt: float
    sqdt: float
    digit_signs: np.ndarray  # (2**d, d), entries +-1
    omega: tuple  # per level k: (2**(d k), d) cumulative Wiener state
    kind = "tree"  # a class attribute, not a field; the Lattice's is "lattice"

    @property
    def branching(self) -> int:
        return 2**self.d

    @property
    def n_leaves(self) -> int:
        return self.branching**self.n_steps

    def n_nodes(self, level: int) -> int:
        return self.branching**level

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)

    def child(self, nxt, b: int, n_k: int) -> np.ndarray:
        """Child b of every level-k node, a strided view of level k+1."""
        return nxt.reshape(nxt.shape[0], n_k, self.branching)[:, :, b]

    def merge(self, rhs) -> np.ndarray:
        """Level k+1 from the values (nx, n_k, br) of each node's children."""
        return rhs.reshape(rhs.shape[0], -1)

    def weights(self, level: int) -> float:
        """P_k: uniform, 1 / n_nodes(level) (a power of two, so exact)."""
        return 1.0 / self.n_nodes(level)

    def omega1(self, node: TreeNode) -> float:
        """First Wiener component at the node."""
        return float(self.omega[node.level][node.index, 0])

    def ancestor_index(self, leaf_index, level: int):
        """Index of the level-`level` ancestor of the given leaf (vectorized)."""
        shift = self.d * (self.n_steps - level)
        return np.asarray(leaf_index) >> shift

    def leaf_index(self, leaf) -> int:
        """leaf as an int; TreeError unless it is an integer index of a leaf."""
        try:
            index = operator.index(leaf)
        except TypeError:
            raise TreeError(f"a leaf must be an integer index, got {leaf!r}") from None
        if not 0 <= index < self.n_leaves:
            raise TreeError(f"leaf index {index} out of range")
        return index

    def leaf_path(self, leaf) -> np.ndarray:
        """Node indices along the path root -> leaf, one per level."""
        leaf = self.leaf_index(leaf)
        return np.array(
            [leaf >> (self.d * (self.n_steps - k)) for k in range(self.n_steps + 1)],
            dtype=np.int64,
        )


def build_tree(d: int, n_steps: int, horizon: float) -> ScenarioTree:
    """Build the complete binomial scenario tree.

    Guards: d in {1, 2}; at most MAX_STATES nodes over all levels,
    (2**(d (n_steps+1)) - 1) / (2**d - 1): n_steps <= 16 for d=1 and <= 8
    for d=2.
    """
    if d not in (1, 2):
        raise TreeError(f"driving dimension d must be 1 or 2, got {d}")
    if n_steps < 1:
        raise TreeError("n_steps must be positive")
    # more than 2**(d n_steps) nodes: none are counted past 2**63
    _size_guard(f"a d={d} tree", n_steps,
                (2**(d * (n_steps + 1)) - 1) // (2**d - 1) if d * n_steps < 63 else None)
    if horizon <= 0:
        raise TreeError("horizon must be positive")
    dt = horizon / n_steps
    sqdt = float(np.sqrt(dt))
    br = 2**d
    digits = np.arange(br)
    digit_signs = np.empty((br, d))
    for c in range(d):
        digit_signs[:, c] = 1.0 - 2.0 * ((digits >> c) & 1)
    digit_signs.setflags(write=False)
    omega = [np.zeros((1, d))]
    for _ in range(n_steps):
        prev = omega[-1]
        nxt = prev[:, None, :] + digit_signs[None, :, :] * sqdt
        omega.append(nxt.reshape(-1, d))
    for arr in omega:
        arr.setflags(write=False)
    return ScenarioTree(
        d=d,
        n_steps=n_steps,
        horizon=horizon,
        dt=dt,
        sqdt=sqdt,
        digit_signs=digit_signs,
        omega=tuple(omega),
    )


@dataclass(frozen=True)
class Lattice:
    """Recombining w1 lattice for d = 1, a drop-in `tree` for the level
    solvers; its fields hold conditional means given (k, w1)."""

    n_steps: int
    horizon: float
    dt: float
    sqdt: float
    digit_signs: np.ndarray  # (2, 1): child 0 steps up, child 1 down
    omega: tuple  # per level k: (k + 1, 1), sqrt(dt) (k - 2j)

    kind, d, branching = "lattice", 1, 2

    def n_nodes(self, level: int) -> int:
        return level + 1

    def child(self, nxt, b: int, n_k: int) -> np.ndarray:
        """Child b of every level-k state j: state j + b of level k+1."""
        return nxt[:, b : b + n_k]

    def merge(self, rhs) -> np.ndarray:
        """E[u^{k+1} | j'] from rhs (nx, n_k, 2): (k+1-j')/(k+1) times child 0
        of parent j' plus j'/(k+1) times child 1 of parent j'-1."""
        n_k = rhs.shape[1]
        out = np.zeros((rhs.shape[0], n_k + 1))
        out[:, :-1] = rhs[:, :, 0] * (np.arange(n_k, 0, -1) / n_k)
        out[:, 1:] += rhs[:, :, 1] * (np.arange(1, n_k + 1) / n_k)
        return out

    def weights(self, level: int) -> np.ndarray:
        """P_k(j) = C(k, j) / 2**k."""
        return np.array([math.comb(level, j) for j in range(level + 1)]) / 2.0**level


def build_lattice(n_steps: int, horizon: float) -> Lattice:
    """The w1 lattice with the time grid of build_tree(1, n_steps, horizon);
    its (n_steps+1)(n_steps+2)/2 states must fit MAX_STATES: n_steps <= 510."""
    if n_steps < 1 or horizon <= 0:
        raise TreeError("the lattice needs n_steps >= 1 and horizon > 0")
    # more than n_steps**2 / 2 states: none are counted past 2**63
    _size_guard("the w1 lattice", n_steps,
                (n_steps + 1) * (n_steps + 2) // 2 if n_steps < 2**32 else None)
    sqdt = float(np.sqrt(horizon / n_steps))
    signs = np.array([[1.0], [-1.0]])
    omega = tuple(sqdt * (k - 2.0 * np.arange(k + 1))[:, None] for k in range(n_steps + 1))
    for arr in (signs, *omega):
        arr.setflags(write=False)
    return Lattice(n_steps, horizon, horizon / n_steps, sqdt, signs, omega)


def require_tree(tree, what: str, error=TreeError):
    """Raise error unless tree is a ScenarioTree (`what` needs per-path values)."""
    if tree.kind != "tree":
        raise error(f"{what} needs per-path values, which the w1 lattice averages away")


def _as_leaf_values(tree: ScenarioTree, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[0] != tree.n_leaves:
        raise TreeError(
            f"leaf-indexed input has {X.shape[0]} entries, tree has {tree.n_leaves} leaves"
        )
    return X


def cond_expect(X, t_index: int, tree: ScenarioTree) -> np.ndarray:
    """Conditional expectation of leaf-indexed values at a tree level.

    Exact probability-weighted average over descendant leaves; the tower
    property holds to round-off by construction.
    """
    if not 0 <= t_index <= tree.n_steps:
        raise TreeError(f"t_index {t_index} out of range [0, {tree.n_steps}]")
    vals = _as_leaf_values(tree, X)
    rest = vals.shape[1:]
    for _ in range(tree.n_steps - t_index):
        vals = vals.reshape((-1, tree.branching) + rest).mean(axis=1)
    return vals


def ito_integral(gammas: Sequence[np.ndarray], tree: ScenarioTree) -> np.ndarray:
    """Ito sum of an adapted integrand over the whole horizon, per leaf.

    gammas[k] holds the d-row integrand values on level-k nodes, shape
    (2**(d k), d), for k = 0 .. n_steps-1.
    """
    if len(gammas) != tree.n_steps:
        raise TreeError(f"need {tree.n_steps} integrand levels, got {len(gammas)}")
    acc = np.zeros(1)
    kick = tree.digit_signs.T * tree.sqdt  # (d, branching)
    for k, gam in enumerate(gammas):
        gam = np.asarray(gam, dtype=float)
        if gam.shape != (tree.n_nodes(k), tree.d):
            raise TreeError(
                f"integrand at level {k} has shape {gam.shape}, "
                f"expected {(tree.n_nodes(k), tree.d)} (non-adapted input?)"
            )
        acc = (acc[:, None] + gam @ kick).reshape(-1)
    return acc


@dataclass(frozen=True)
class MartingaleDecomposition:
    """Mean plus Clark kernels of a leaf-indexed variable.

    For d=1 the reconstruction mean + sum_j int gamma_j domega_j reproduces
    the variable exactly; for d=2 the kernels are the L2 projections onto
    the increment directions (the exact analog only exists in the limit).
    """

    mean: float
    kernels: tuple  # per level k: (2**(d k), d)

    def reconstruct(self, tree: ScenarioTree) -> np.ndarray:
        return self.mean + ito_integral(list(self.kernels), tree)


def clark_decompose(X, tree: ScenarioTree) -> MartingaleDecomposition:
    """Martingale representation of a leaf-indexed variable.

    kernel_j at a node is E[X domega_j | node] / dt, solved exactly from the
    child conditional means.
    """
    vals = _as_leaf_values(tree, X)
    if vals.ndim != 1:
        raise TreeError("clark_decompose expects scalar leaf values")
    kernels: list[np.ndarray] = [None] * tree.n_steps
    weights = tree.digit_signs * (tree.sqdt / (tree.dt * tree.branching))
    m = vals
    for k in range(tree.n_steps - 1, -1, -1):
        m_children = m.reshape(-1, tree.branching)
        kernels[k] = m_children @ weights
        m = m_children.mean(axis=1)
    return MartingaleDecomposition(mean=float(m[0]), kernels=tuple(kernels))


@dataclass(frozen=True)
class IncrementShape:
    """Nominal size of a bundle's increments, (n_paths, n_fine).

    No array of this size exists: `PathBundle.block` draws the increments
    one coarse block at a time, for the requested paths only.
    """

    shape: tuple

    @property
    def size(self) -> int:
        return math.prod(self.shape)

    @property
    def nbytes(self) -> int:
        return 8 * self.size


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _counter_normals(key: np.uint64, counters: np.ndarray) -> np.ndarray:
    """Standard normals that are a fixed function of (key, counter).

    Counter-based generation: the SplitMix64 output at position `counter`
    of the stream seeded by `key` (Steele, Lea and Flood, OOPSLA 2014) gives
    53 uniform bits, mapped to a normal by the inverse CDF.  Any subset of
    counters is evaluated on its own, so draws need no generator state.
    `counters` (uint64) is overwritten.
    """
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
    # the top 2^11 hashes round to u = 1 (ndtri = inf); every other u is <= 1 - 2^-52
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return ndtri(u, out=u)


_pool = None  # the draw pool, created at the first split
_pool_lock = threading.Lock()


def draw_threads() -> int:
    """Threads a block's draws may use: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


def _draw_pool() -> ThreadPoolExecutor:
    """The one draw pool every bundle and every chunk thread shares."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(draw_threads(), thread_name_prefix="spdelab-draw")
        return _pool


@dataclass(frozen=True)
class PathBundle:
    """Fine-time noise sigma.dW for Monte Carlo, drawn lazily by block.

    The state is scalar, so one normal Z_m ~ N(0, dt_mc) per path and fine
    step carries all d0 components.  Block k holds fine steps k*n_sub ..
    (k+1)*n_sub - 1 (n_sub = 1 without a tree).  A free increment is
    |sigma| Z_m (sigma_0 Z_m when d0 = 1).  On a tree, W's first d components
    are bridged through the path's edge (of the path to `leaf`, shared by
    every path, or to its own leaf in `leaves`); with s = |sigma|, s_f = |sigma[d:]|,

        s Z_j - (s - s_f) mean_j(Z) + sigma[:d].dW_tree / n_sub

    has the law of sigma.(bridged + free increments): covariance dt_mc (s^2 I
    - |sigma[:d]|^2 11^T / n_sub), and the bridged part of the block sum is
    exactly sigma[:d].dW_tree.  The increment of path p and step m is a fixed
    function of (seed, p, m), whichever other paths are drawn with it and
    whichever thread draws it.
    """

    tree: ScenarioTree | None
    leaf: int | None  # the leaf of every path
    leaves: np.ndarray | None  # (n_paths,) leaf per path
    sigma: np.ndarray  # (d0,) diffusion row the increments are built for
    dt_mc: float
    seed: object
    times: np.ndarray  # (n_fine + 1,)
    n_paths: int
    n_fine: int
    n_sub: int

    @property
    def increments(self) -> IncrementShape:
        return IncrementShape((self.n_paths, self.n_fine))

    def nodes(self, level: int, rows=None):
        """Active tree node at a level for the given path rows (all rows when
        None); one shared index for a designated leaf."""
        if self.leaves is None:
            return self.tree.ancestor_index(self.leaf, level)
        leaves = self.leaves if rows is None else self.leaves[rows]
        return self.tree.ancestor_index(leaves, level)

    def w1(self, level: int, rows=None):
        """First Wiener component at the active node of a level, per row
        (None for a free bundle)."""
        if self.tree is None:
            return None
        return self.tree.omega[level][self.nodes(level, rows), 0]

    @cached_property
    def _key(self) -> np.uint64:
        return np.random.SeedSequence(seed_entropy(self.seed)).generate_state(1, np.uint64)[0]

    def block(self, k: int, rows) -> np.ndarray:
        """Increments sigma.dW of block k for the given path rows, (n_sub, rows).

        A block of n_sub >= 2 steps is drawn by min(draw_threads(), n_sub)
        tasks of the shared draw pool (numpy and scipy ufuncs release the GIL),
        each filling its own run of steps; every row z[j] is the same
        function of the counters however the steps are split.
        """
        rows = np.asarray(rows)
        # counter of (path p, fine step m): p * n_fine + m; one fine step at a
        # time keeps the work arrays in cache
        at_m0 = rows.astype(np.uint64) * np.uint64(self.n_fine)
        z = np.empty((self.n_sub, rows.size))

        def draw(lo, hi):
            for j in range(lo, hi):
                z[j] = _counter_normals(self._key, at_m0 + np.uint64(k * self.n_sub + j))

        tasks = min(draw_threads(), self.n_sub) if self.n_sub > 1 else 1
        if tasks < 2:
            draw(0, self.n_sub)
        else:
            # one coarse task per thread keeps the GIL hand-offs few
            cuts = [t * self.n_sub // tasks for t in range(tasks + 1)]
            for f in [_draw_pool().submit(draw, lo, hi) for lo, hi in zip(cuts, cuts[1:])]:
                f.result()
        z *= np.sqrt(self.dt_mc)
        tree = self.tree
        if tree is None:
            z *= self.sigma[0] if self.sigma.size == 1 else np.linalg.norm(self.sigma)
            return z
        s, s_f = np.linalg.norm(self.sigma), np.linalg.norm(self.sigma[tree.d :])
        edge = tree.digit_signs[self.nodes(k + 1, rows) % tree.branching]
        shift = (edge @ self.sigma[: tree.d]) * (tree.sqdt / self.n_sub)
        shift -= (s - s_f) * z.mean(axis=0)
        z *= s
        z += shift
        return z


def fine_steps(horizon: float, dt_mc: float, dt_coarse: float | None) -> tuple[int, int]:
    """(n_fine, n_sub): fine steps over the horizon and per tree step (1
    without a tree).  Raises TreeError unless dt_mc divides both."""
    n_fine = horizon / dt_mc
    if abs(n_fine - round(n_fine)) > 1e-9:
        raise TreeError(f"dt_mc={dt_mc} does not divide the horizon {horizon}")
    n_fine = int(round(n_fine))
    n_sub = 1
    if dt_coarse is not None:
        n_sub = dt_coarse / dt_mc
        if abs(n_sub - round(n_sub)) > 1e-9:
            raise TreeError(f"dt_mc={dt_mc} does not divide the tree step {dt_coarse}")
        n_sub = int(round(n_sub))
    return n_fine, n_sub


def _bundle(horizon, tree, leaf, leaves, M, sigma, dt_mc, seed) -> PathBundle:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or sigma.size < (1 if tree is None else tree.d):
        raise TreeError(f"need a diffusion row with d0 >= d >= 1 entries, got sigma={sigma}")
    n_fine, n_sub = fine_steps(horizon, dt_mc, None if tree is None else tree.dt)
    return PathBundle(
        tree=tree,
        leaf=leaf,
        leaves=leaves,
        sigma=sigma,
        dt_mc=dt_mc,
        seed=seed,
        times=dt_mc * np.arange(n_fine + 1),
        n_paths=M,
        n_fine=n_fine,
        n_sub=n_sub,
    )


def bridge_paths(tree: ScenarioTree, leaf: int, M: int, sigma, dt_mc: float, seed) -> PathBundle:
    """M paths of sigma.dW bridged through the tree path to one leaf, tail
    columns free.  Deterministic given seed.
    """
    return _bundle(tree.horizon, tree, tree.leaf_index(leaf), None, M, sigma, dt_mc, seed)


def free_paths(horizon: float, M: int, sigma, dt_mc: float, seed) -> PathBundle:
    """Unconstrained increments sigma.dW on the fine mesh."""
    return _bundle(horizon, None, None, None, M, sigma, dt_mc, seed)


def sample_tree_paths(tree: ScenarioTree, M: int, sigma, dt_mc: float, seed) -> PathBundle:
    """Bundle with leaves drawn uniformly per path and bridged increments.

    Used for unconditional estimates under tree-adapted coefficients: the
    driving components and the coefficient process then share the same
    discrete noise, matching the solver side.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed_entropy(seed, 0x1EAF)))
    leaves = rng.integers(0, tree.n_leaves, size=M)
    return _bundle(tree.horizon, tree, None, leaves, M, sigma, dt_mc, seed)
