"""Discrete model of the driving Wiener process.

The first d components of the Wiener process live on a complete binomial
scenario tree with increments +-sqrt(dt) per component and step.  On this
tree conditional expectation, the Ito integral and the martingale
(Clark-type) representation are computed exactly, so probabilistic
identities hold to round-off and discretization error is confined to space
and time.  Fine-time Monte Carlo increments are the scalar noise sigma.dW,
one normal per path and fine step, with the first d Wiener components
bridged through the tree path to each path's leaf.  One routine,
`PathBundle.draw`, draws them for the paths still being marched, one
rectangle of (fine steps, paths) at a time, in the calling thread: a tree
step for tree-bridged paths, a span of up to SPAN_MAX fine steps for free
ones, hashed HASH_NORMALS normals per call and, on a tree, shifted by the
bridge.  Each normal is a fixed function of
(key, counter), so a path's increments do not depend on which other paths
are drawn with it: `montecarlo.simulate` splits a tree-bridged march into
groups of paths, one per CPU the process may run on (`draw_threads`), on
threads it starts and joins itself, with the same bits for any CPU count.
Every stream is seeded by SeedSequence((seed, *tags)), which flattens
nested tuples and lists of ints at any depth.  The inverse normal CDF is imported by
`normal_transform` at its first call: at config load for the experiments
that draw, and never by a run that draws no normals.

Node addressing: the node with index i at level k has parent i // 2**d and
reaches child i * 2**d + j through branch digit j; bit c of the digit
encodes the sign of increment component c (bit 0 -> +sqrt(dt)).

At any d the `Lattice` recombines the tree by its first component (Cox,
Ross and Rubinstein 1979): state j of level k counts the down steps of w1,
so w1 = sqrt(dt) (k - 2j).  Coefficients and test fields read the path only
through w1, so both store w1 alone (`w1[k]`, one value per level-k node),
and a lattice field holds the tree field's conditional means given (k, w1).
Both classes give the solvers the level structure: `child(nxt, b, n_k)`,
child b of every level-k node as an (nx, n_k) view of level k+1;
`merge(rhs)`, level k+1 from per-child values (nx, n_k, br); and
`weights(k)`, the level probabilities P_k.
"""

from __future__ import annotations

import math
import operator
import os
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np
from numpy.random import SeedSequence, default_rng

# the most states (nodes summed over the levels) one level's state space may
# hold: the d = 1 tree at 16 steps.  A tree stops at 16 steps when d = 1 and
# at 8 when d = 2; the w1 lattice, (N + 1)(N + 2) / 2 states at any d, at 510.
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
    w1: tuple  # per level k: (2**(d k),) first Wiener component at each node
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
    w1 = [np.zeros(1)]
    for _ in range(n_steps):
        w1.append((w1[-1][:, None] + digit_signs[:, 0] * sqdt).reshape(-1))
    for arr in w1:
        arr.setflags(write=False)
    return ScenarioTree(
        d=d,
        n_steps=n_steps,
        horizon=horizon,
        dt=dt,
        sqdt=sqdt,
        digit_signs=digit_signs,
        w1=tuple(w1),
    )


def leaf_walk(d: int, n_steps: int, horizon: float, leaf: int) -> np.ndarray:
    """(n_steps + 1, d): the driving components W[:d] at each level's node
    on the path root -> leaf of build_tree(d, n_steps, horizon), without
    building the tree; bits of leaf past its d * n_steps are dropped, as the
    leaf index modulo the leaf count."""
    digits = np.array([(leaf >> (d * (n_steps - 1 - k))) % 2**d for k in range(n_steps)])
    signs = 1.0 - 2.0 * ((digits[:, None] >> np.arange(d)) & 1)
    return math.sqrt(horizon / n_steps) * np.vstack([np.zeros(d), np.cumsum(signs, axis=0)])


@dataclass(frozen=True)
class Lattice:
    """Recombining w1 lattice, a drop-in `tree` for the level solvers at any
    d; its fields hold conditional means given (k, w1), and it drives only
    the first Wiener component (the others drop out of those means)."""

    n_steps: int
    horizon: float
    dt: float
    sqdt: float
    digit_signs: np.ndarray  # (2, 1): child 0 steps up, child 1 down
    w1: tuple  # per level k: (k + 1,), sqrt(dt) (k - 2j)

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
    w1 = tuple(sqdt * (k - 2.0 * np.arange(k + 1)) for k in range(n_steps + 1))
    for arr in (signs, *w1):
        arr.setflags(write=False)
    return Lattice(n_steps, horizon, horizon / n_steps, sqdt, signs, w1)


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


@cache
def normal_transform():
    """The inverse normal CDF of every draw, imported at the first call: the
    package's one use of scipy, whose absence the ImportError names.

    A run that draws loads it while its config loads (`harness.RULES`), and
    `montecarlo.simulate` before any draw thread starts, so no draw thread
    imports it; a run that draws no normals never imports scipy.
    """
    try:
        from scipy.special import ndtri
    except ImportError as exc:
        raise ImportError(f"the inverse normal CDF of the draws, scipy.special.ndtri, "
                          f"cannot be imported: {exc}") from exc
    return ndtri


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _counter_normals(key: np.uint64, counters: np.ndarray, out=None) -> np.ndarray:
    """Standard normals that are a fixed function of (key, counter).

    Counter-based generation: the SplitMix64 output at position `counter`
    of the stream seeded by `key` (Steele, Lea and Flood, OOPSLA 2014) gives
    53 uniform bits, mapped to a normal by the inverse CDF that
    `normal_transform()` returns (resolved before any draw thread runs, so
    this call imports nothing).  Any subset of counters is evaluated on its
    own, so draws need no generator state.
    `counters` (uint64) is overwritten; the normals are written to `out`
    (float64, the counters' shape; a new array when None), whose bytes also
    hold the shifted words of the hash, so nothing else is allocated.
    """
    z = counters
    u = np.empty(z.shape) if out is None else out
    shifted = u.view(np.uint64)
    z *= _GOLDEN
    z += key
    np.right_shift(z, np.uint64(30), out=shifted)
    z ^= shifted
    z *= _MIX1
    np.right_shift(z, np.uint64(27), out=shifted)
    z ^= shifted
    z *= _MIX2
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    z >>= np.uint64(11)
    np.add(z, 0.5, out=u)  # z < 2^53 converts exactly
    u *= 2.0**-53
    # the top 2^11 hashes round to u = 1 (ndtri = inf); every other u is <= 1 - 2^-52
    np.minimum(u, 1.0 - 2.0**-53, out=u)
    return normal_transform()(u, out=u)


# a free draw spans the fewest fine steps that hold SPAN_NORMALS normals
# of its paths, at most SPAN_MAX: a draw of few paths pays the fixed cost of
# a draw once for up to SPAN_MAX steps.  A span costs the march a gather per
# step once a path has exited, and a path that exits inside a span leaves
# its later normals unused, so draws of SPAN_NORMALS paths or more keep one
# step.  On the mc-exit march (2-vCPU Xeon KVM guest) 2**12 was the fastest
# of 2**10 .. 2**16; 2**16 was no faster than single steps.
SPAN_NORMALS = 2**12
SPAN_MAX = 16

# a draw is hashed max(1, HASH_NORMALS // rows) fine steps per
# _counter_normals call (5 steps of a tree block at 12.5k rows; a free span,
# at most SPAN_MAX steps of SPAN_NORMALS rows or one step, is one call), in a
# 512 kB scratch array that each group of a march holds while it draws: few
# calls keep the GIL hand-offs of concurrent groups few, and 100,000 normals
# per call were no faster but put 3 groups of 20k paths past 1.5 blocks of
# peak memory
HASH_NORMALS = 2**16


def draw_threads() -> int:
    """Threads a march may use: the CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class PathBundle:
    """Fine-time noise sigma.dW for Monte Carlo, drawn lazily, one rectangle
    of (fine steps, live paths) at a time.

    The state is scalar, so one normal Z_m ~ N(0, dt_mc) per path and fine
    step carries all d0 components.  `draw` is the one routine that hashes,
    scales and bridges them: it picks a rectangle of fine steps, the tree
    block k (steps k*n_sub .. (k+1)*n_sub - 1) or a span of free steps,
    hashes it HASH_NORMALS normals per call and scales it.  A free increment
    is |sigma| Z_m (sigma_0 Z_m when d0 = 1).  On a tree, W's first d
    components are bridged through the edge of each path's leaf in `leaves`;
    with s = |sigma|, s_f = |sigma[d:]|,

        s Z_j - (s - s_f) mean_j(Z) + sigma[:d].dW_tree / n_sub

    has the law of sigma.(bridged + free increments): covariance dt_mc (s^2 I
    - |sigma[:d]|^2 11^T / n_sub), and the bridged part of the block sum is
    exactly sigma[:d].dW_tree.  The increment of path p and step m is a fixed
    function of (seed, p, m), whichever other paths and steps are drawn with
    it and whichever thread draws it.
    """

    tree: ScenarioTree | None
    leaves: np.ndarray | None  # (n_paths,) leaf per path; None without a tree
    sigma: np.ndarray  # (d0,) diffusion row the increments are built for
    dt_mc: float
    seed: object  # an int, or nested tuples and lists of ints: the key is SeedSequence((seed,))
    times: np.ndarray  # (n_fine + 1,)
    n_paths: int
    n_fine: int
    n_sub: int

    @property
    def increments(self) -> np.ndarray:
        """A zero-stride (n_paths, n_fine) view of one 0.0 that allocates
        nothing: the nominal size of the increments, which `draw` makes a
        few fine steps at a time, for the requested paths only."""
        return np.broadcast_to(np.float64(0.0), (self.n_paths, self.n_fine))

    def nodes(self, level: int, rows=None):
        """Active tree node at a level for the given path rows (all rows when None)."""
        leaves = self.leaves if rows is None else self.leaves[rows]
        return self.tree.ancestor_index(leaves, level)

    def w1(self, level: int, rows=None):
        """First Wiener component at the active node of a level, per row
        (None for a free bundle)."""
        if self.tree is None:
            return None
        return self.tree.w1[level][self.nodes(level, rows)]

    @cached_property
    def _key(self) -> np.uint64:
        return SeedSequence((self.seed,)).generate_state(1, np.uint64)[0]

    def draw(self, m: int, rows) -> tuple[int, np.ndarray]:
        """(first, z): the increments z, (steps, rows), of the draw that holds
        fine step m, for fine steps first, first + 1, ... and the given rows,
        drawn in the calling thread.

        On a tree the draw is the block of m, its n_sub steps from
        first = m - m % n_sub.  Free paths draw a span of
        S = min(ceil(SPAN_NORMALS / rows), SPAN_MAX, n_fine - m) steps from m;
        S depends on the row count only, never on the CPU count.  The draw is
        hashed max(1, HASH_NORMALS // rows) steps per call, each call's rows
        scaled by sqrt(dt_mc) while they are in cache.  A tree draw then adds
        the bridge shift, whose column sum is added up one step after
        another, so a path's column has the same bits at any row count.  A
        free draw is scaled by sigma_0 or |sigma|.
        """
        tree = self.tree
        rows = np.asarray(rows)
        if tree is None:
            first, n = m, min(-(-SPAN_NORMALS // max(rows.size, 1)), SPAN_MAX, self.n_fine - m)
        else:
            first, n = m - m % self.n_sub, self.n_sub
        per_call = max(1, min(HASH_NORMALS // max(rows.size, 1), n))
        # counter of (path p, fine step m): p * n_fine + m
        at_m0 = rows.astype(np.uint64) * np.uint64(self.n_fine)
        steps = np.arange(first, first + n, dtype=np.uint64)[:, None]
        counters = np.empty((per_call, rows.size), dtype=np.uint64)  # the one scratch array
        z = np.empty((n, rows.size))
        total = None if tree is None else np.zeros(rows.size)
        for lo in range(0, n, per_call):
            hi = min(lo + per_call, n)
            np.add(at_m0, steps[lo:hi], out=counters[: hi - lo])
            part = _counter_normals(self._key, counters[: hi - lo], out=z[lo:hi])
            part *= np.sqrt(self.dt_mc)
            if total is not None:
                for row in part:  # numpy's mean of a single column would sum pairwise
                    total += row
        if tree is None:
            z *= self.sigma[0] if self.sigma.size == 1 else np.linalg.norm(self.sigma)
            return first, z
        s, s_f = np.linalg.norm(self.sigma), np.linalg.norm(self.sigma[tree.d :])
        edge = tree.digit_signs @ self.sigma[: tree.d]  # sigma[:d].dW_tree / sqdt, exact
        shift = edge[self.nodes(first // self.n_sub + 1, rows) % tree.branching]
        shift *= tree.sqdt / n
        shift -= (s - s_f) * (total / n)
        z *= s
        z += shift
        return first, z


def fine_steps(horizon: float, dt_mc: float, dt_coarse: float | None) -> tuple[int, int]:
    """(n_fine, n_sub): fine steps over the horizon and per tree step (1
    without a tree).  Raises TreeError unless dt_mc divides both."""
    n_fine = horizon / dt_mc
    if math.isinf(n_fine):
        raise TreeError(f"dt_mc={dt_mc} is too small: horizon / dt_mc overflows")
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


def _bundle(horizon, tree, leaves, M, sigma, dt_mc, seed) -> PathBundle:
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim != 1 or sigma.size < (1 if tree is None else tree.d):
        raise TreeError(f"need a diffusion row with d0 >= d >= 1 entries, got sigma={sigma}")
    n_fine, n_sub = fine_steps(horizon, dt_mc, None if tree is None else tree.dt)
    return PathBundle(
        tree=tree,
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
    leaves = np.full(M, tree.leaf_index(leaf))
    return _bundle(tree.horizon, tree, leaves, M, sigma, dt_mc, seed)


def free_paths(horizon: float, M: int, sigma, dt_mc: float, seed) -> PathBundle:
    """Unconstrained increments sigma.dW on the fine mesh."""
    return _bundle(horizon, None, None, M, sigma, dt_mc, seed)


def sample_tree_paths(tree: ScenarioTree, M: int, sigma, dt_mc: float, seed) -> PathBundle:
    """Bundle with leaves drawn uniformly per path and bridged increments.

    Used for unconditional estimates under tree-adapted coefficients: the
    driving components and the coefficient process then share the same
    discrete noise, matching the solver side.
    """
    leaves = default_rng(SeedSequence((seed, 0x1EAF))).integers(0, tree.n_leaves, size=M)
    return _bundle(tree.horizon, tree, leaves, M, sigma, dt_mc, seed)
