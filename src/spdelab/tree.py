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
rectangle of (fine steps, paths) at a time: a tree step for tree-bridged
paths, a span of up to SPAN_MAX fine steps for free ones, hashed
HASH_NORMALS normals per call and, on a tree, shifted by the bridge.  Each
normal is a fixed function of (key, counter), so a path's increments do not
depend on which other paths are drawn with it; `rng` says which stream each
draw takes.

Node addressing: the node with index i at level k has parent i // 2**d and
reaches child i * 2**d + j through branch digit j; bit c of the digit encodes
the sign of increment component c (bit 0 -> +sqrt(dt)).  So a leaf's index
holds its path's digits (`branch_digits`), and a path bundle holds leaves and
no tree.

At any d the `Lattice` recombines the tree by its first component (Cox, Ross
and Rubinstein 1979): state j of level k counts the down steps of w1, and one
rule, `w1_at`, sets w1 = sqrt(dt) (k - 2j) at a lattice state's and a path's
j.  Only the lattice stores w1 (`w1[k]`); a tree keeps each node's j
(`states(k)`), so a node's w1 is `lattice.w1[k][states(k)]`.  Coefficients
and test fields read the path only through w1, so they are evaluated at the
lattice states alone: a lattice field holds the tree field's conditional
means given (k, w1), and a tree field built from w1 is its lattice field
gathered by each node's j.  Every backward sweep and forward dual solves on
the lattice (`require_space`); the tree serves the density march, whose
level solve factors the k + 1 states of its `lattice` and gathers each
node's factors by its j, and the exact calculus of leaf-indexed values
(`cond_expect`, `clark_decompose`) and the tests' per-path oracles.  Both
classes give the marches `merge(rhs)`, level k+1 from per-child values
(nx, n_k, br), and `weights(k)`, the level probabilities P_k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Sequence

import numpy as np

from .rng import counter_normals, pcg64_integers, seed_key

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


@dataclass(frozen=True)
class ScenarioTree:
    d: int
    n_steps: int
    horizon: float
    dt: float
    sqdt: float
    digit_signs: np.ndarray  # (2**d, d), entries +-1
    down: tuple  # per level k: (2**(d k),) intp, each node's j, its lattice state
    kind = "tree"  # a class attribute, not a field; the Lattice's is "lattice"

    @property
    def branching(self) -> int:
        return 2**self.d

    @property
    def n_leaves(self) -> int:
        return self.branching**self.n_steps

    def n_nodes(self, level: int) -> int:
        return self.branching**level

    def merge(self, rhs) -> np.ndarray:
        """Level k+1, C-contiguous, from the values (nx, n_k, br) of every child."""
        return np.ascontiguousarray(rhs).reshape(rhs.shape[0], -1)

    def weights(self, level: int) -> float:
        """P_k: uniform, 1 / n_nodes(level) (a power of two, so exact)."""
        return 1.0 / self.n_nodes(level)

    @cached_property
    def lattice(self) -> "Lattice":
        """The w1 lattice of this time grid: its level-k states are the k + 1
        distinct w1 of the level's nodes, with their bits."""
        return build_lattice(self.n_steps, self.horizon)

    def states(self, level: int) -> np.ndarray:
        """Each level-`level` node's state j in `lattice`."""
        return self.down[level]

    def ancestor_index(self, leaf_index, level: int):
        """Index of the level-`level` ancestor of the given leaf (vectorized)."""
        shift = self.d * (self.n_steps - level)
        return np.asarray(leaf_index) >> shift

    @property
    def shape(self) -> tuple:
        """(d, n_steps, horizon): what a path bundle bridged through it needs."""
        return self.d, self.n_steps, self.horizon

    def leaf_path(self, leaf) -> np.ndarray:
        """Node indices along the path root -> leaf, one per level."""
        return self.ancestor_index(_leaf_index(leaf, self.n_leaves), np.arange(self.n_steps + 1))


def _leaf_index(leaf, n_leaves: int) -> int:
    """leaf as an int; TreeError unless it is an integer index below n_leaves."""
    try:
        index = operator.index(leaf)
    except TypeError:
        raise TreeError(f"a leaf must be an integer index, got {leaf!r}") from None
    if not 0 <= index < n_leaves:
        raise TreeError(f"leaf index {index} out of range")
    return index


def _steps(d: int, n_steps: int, horizon: float) -> tuple:
    """(dt, sqdt, digit_signs) of a tree, the lattice (d = 1) and bridged
    bundles; TreeError unless d is 1 or 2, n_steps >= 1 and horizon > 0."""
    if d not in (1, 2):
        raise TreeError(f"driving dimension d must be 1 or 2, got {d}")
    if n_steps < 1:
        raise TreeError("n_steps must be positive")
    if horizon <= 0:
        raise TreeError("horizon must be positive")
    dt = horizon / n_steps
    # in Python ints, as the tables' j is float64: a run that marches no bridged path
    # calls no integer ufunc, whose first call maps its code in (0.1-0.2 MB peak RSS)
    digit_signs = np.array([[1.0 - 2.0 * (j >> c & 1) for c in range(d)] for j in range(2**d)])
    digit_signs.setflags(write=False)
    return dt, float(np.sqrt(dt)), digit_signs


def branch_digits(leaves, d: int, n_steps: int, k: int, mask: int | None = None,
                  out=None) -> np.ndarray:
    """The branch digit of edge k, level k -> k+1, on the path to each leaf:
    the low d bits of its level-(k+1) ancestor's index, or those in mask (1:
    the first component's down bit), in out (int64, leaves' shape) or a new
    array."""
    digits = np.right_shift(leaves, d * (n_steps - k - 1), out=out)
    digits &= 2**d - 1 if mask is None else mask
    return digits


def w1_at(level: int, down, sqdt: float, out=None) -> np.ndarray:
    """The one w1 rule, sqdt (level - 2 down), sqdt times an exact integer rounded once;
    down is whole: float64 in the tables, int8 (any j of a 63-step path) on paths."""
    return np.multiply(level - 2 * down, sqdt, out=out, dtype=np.float64)


def build_tree(d: int, n_steps: int, horizon: float) -> ScenarioTree:
    """Build the complete binomial scenario tree.

    Guards: d in {1, 2}; at most MAX_STATES nodes over all levels,
    (2**(d (n_steps+1)) - 1) / (2**d - 1): n_steps <= 16 for d=1 and <= 8
    for d=2.
    """
    dt, sqdt, digit_signs = _steps(d, n_steps, horizon)
    # more than 2**(d n_steps) nodes: none are counted past 2**63
    _size_guard(f"a d={d} tree", n_steps,
                (2**(d * (n_steps + 1)) - 1) // (2**d - 1) if d * n_steps < 63 else None)
    down = [np.zeros(1)]  # each node's j, level by level (float64: see _steps)
    for _ in range(n_steps):
        down.append((down[-1][:, None] + (digit_signs[:, 0] < 0)).reshape(-1))
    down = [j.astype(np.intp) for j in down]  # a cast, no integer ufunc
    for arr in down:
        arr.setflags(write=False)
    return ScenarioTree(d, n_steps, horizon, dt, sqdt, digit_signs, tuple(down))


@dataclass(frozen=True)
class Lattice:
    """Recombining w1 lattice, the state space of every backward sweep and
    forward dual at any d; its fields hold conditional means given (k, w1),
    and it drives only the first Wiener component (the others drop out of
    those means)."""

    n_steps: int
    horizon: float
    dt: float
    sqdt: float
    digit_signs: np.ndarray  # (2, 1): child 0 steps up, child 1 down
    w1: tuple  # per level k: (k + 1,), w1_at(k, j) for j = 0 .. k

    kind, d, branching = "lattice", 1, 2

    def n_nodes(self, level: int) -> int:
        return level + 1

    @property
    def lattice(self) -> "Lattice":
        """Itself: each node is its own state (states(k) is None)."""
        return self

    def states(self, level: int) -> None:
        return None

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

    @staticmethod
    @cache
    def weights(level: int) -> np.ndarray:
        """P_k(j) = C(k, j) / 2**k in float64, computed once per level
        (read-only); each quotient is rounded once, as Python divides ints."""
        weights = np.array([math.comb(level, j) / 2**level for j in range(level + 1)])
        weights.setflags(write=False)
        return weights


def build_lattice(n_steps: int, horizon: float) -> Lattice:
    """The w1 lattice with the time grid of build_tree(1, n_steps, horizon);
    its (n_steps+1)(n_steps+2)/2 states must fit MAX_STATES: n_steps <= 510."""
    dt, sqdt, digit_signs = _steps(1, n_steps, horizon)
    # more than n_steps**2 / 2 states: none are counted past 2**63
    _size_guard("the w1 lattice", n_steps,
                (n_steps + 1) * (n_steps + 2) // 2 if n_steps < 2**32 else None)
    w1 = tuple(w1_at(k, np.arange(k + 1.0), sqdt) for k in range(n_steps + 1))
    for arr in w1:
        arr.setflags(write=False)
    return Lattice(n_steps, horizon, dt, sqdt, digit_signs, w1)


def require_space(space, kind: str, what: str, error=TreeError):
    """Raise error unless space is of kind: "tree" where `what` needs
    per-path values, "lattice" where it solves data read through w1."""
    if space.kind != kind:
        raise error(f"{what} needs per-path values, which the w1 lattice averages away"
                    if kind == "tree" else f"{what} solves on the w1 lattice: pass "
                    "tree.lattice and read a tree node's values with .on(tree)")


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
# counter_normals call (2 steps of a tree block at 12.5k rows; a free span,
# at most SPAN_MAX steps of SPAN_NORMALS rows or one step, is one call), in a
# 256 kB scratch array that the march holds while it draws
HASH_NORMALS = 2**15


@dataclass(frozen=True)
class PathBundle:
    """Fine-time noise sigma.dW for Monte Carlo, drawn lazily, one rectangle
    of (fine steps, live paths) at a time.

    The state is scalar, so one normal Z_m ~ N(0, dt_mc) per path and fine
    step carries all d0 components.  `draw` is the one routine that hashes,
    scales and bridges them: it picks a rectangle of fine steps, the tree
    block k (steps k*n_sub .. (k+1)*n_sub - 1) or a span of free steps,
    hashes it HASH_NORMALS normals per call and scales it.  A free increment
    is |sigma| Z_m (sigma_0 Z_m when d0 = 1).  Bridged paths carry the shape
    of their tree, d, n_steps, dt, sqdt and digit_signs (None on free
    paths), and no tree: W's first d components are bridged through the
    edges of each path's leaf in `leaves`, whose branch digits
    (`branch_digits`) name them; with s = |sigma|, s_f = |sigma[d:]|,

        s Z_j - (s - s_f) mean_j(Z) + sigma[:d].dW_tree / n_sub

    has the law of sigma.(bridged + free increments): covariance dt_mc (s^2 I
    - |sigma[:d]|^2 11^T / n_sub), and the bridged part of the block sum is
    exactly sigma[:d].dW_tree.  The increment of path p and step m is a fixed
    function of (seed, p, m), whichever other paths and steps are drawn with
    it.
    """

    leaves: np.ndarray | None  # (n_paths,) leaf per path; None on free paths
    d: int | None
    n_steps: int | None
    dt: float | None  # the tree step
    sqdt: float | None
    digit_signs: np.ndarray | None  # (2**d, d), entries +-1
    sigma: np.ndarray  # (d0,) diffusion row the increments are built for
    dt_mc: float
    seed: object  # an int, or nested tuples and lists of ints: the key is seed_key(seed)
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

    def down_steps(self, level: int, rows=slice(None)):
        """j, int8, at the level's node of each row's path (None on free paths)."""
        if self.leaves is None:
            return None
        leaves = self.leaves[rows]
        down = np.zeros(leaves.shape, dtype=np.int8)
        for k in range(level):
            down += branch_digits(leaves, self.d, self.n_steps, k, mask=1)
        return down

    def w1(self, level: int, rows=slice(None)) -> np.ndarray | None:
        """w1_at of the rows' down_steps: the lattice w1 of their paths' nodes
        (None on free paths)."""
        down = self.down_steps(level, rows)
        return None if down is None else w1_at(level, down, self.sqdt)

    @cached_property
    def _key(self) -> np.uint64:
        return seed_key(self.seed)

    def draw(self, m: int, rows) -> tuple[int, np.ndarray]:
        """(first, z): the increments z, (steps, rows), of the draw that holds
        fine step m, for fine steps first, first + 1, ... and the given rows.

        On a tree the draw is the block of m, its n_sub steps from
        first = m - m % n_sub.  Free paths draw a span of
        S = min(ceil(SPAN_NORMALS / rows), SPAN_MAX, n_fine - m) steps from m.
        The draw is hashed max(1, HASH_NORMALS // rows) steps per call, each
        call's rows scaled by sqrt(dt_mc) while they are in cache.  A tree
        draw then adds the bridge shift, whose column sum is added up one
        step after another (a block of one step is its own mean), so a
        path's column has the same bits at any row count.  Once hashed, the
        counters' bytes hold the leaf digits, then the shift's mean term.  A
        free draw is scaled by sigma_0 or |sigma|.
        """
        free = self.leaves is None
        rows = np.asarray(rows, dtype=np.int64)
        if free:
            first, n = m, min(-(-SPAN_NORMALS // max(rows.size, 1)), SPAN_MAX, self.n_fine - m)
        else:
            first, n = m - m % self.n_sub, self.n_sub
        per_call = max(1, min(HASH_NORMALS // max(rows.size, 1), n))
        steps = np.arange(first, first + n, dtype=np.uint64)[:, None]
        counters = np.empty((per_call, rows.size), dtype=np.uint64)  # the one scratch array
        z = np.empty((n, rows.size))
        total = None if free or n == 1 else np.zeros(rows.size)
        for lo in range(0, n, per_call):
            hi = min(lo + per_call, n)
            # counter of (path p, fine step m): p * n_fine + m
            np.multiply(rows.view(np.uint64), np.uint64(self.n_fine), out=counters[: hi - lo])
            counters[: hi - lo] += steps[lo:hi]
            part = counter_normals(self._key, counters[: hi - lo], out=z[lo:hi])
            part *= np.sqrt(self.dt_mc)
            if total is not None:
                for row in part:  # numpy's mean of a single column would sum pairwise
                    total += row
        if free:
            z *= self.sigma[0] if self.sigma.size == 1 else np.linalg.norm(self.sigma)
            return first, z
        s, s_f = np.linalg.norm(self.sigma), np.linalg.norm(self.sigma[self.d :])
        edge = self.digit_signs @ self.sigma[: self.d]  # sigma[:d].dW_tree / sqdt, exact
        scratch = counters[0]
        digits = branch_digits(self.leaves[rows], self.d, self.n_steps, first // self.n_sub,
                               out=scratch.view(np.int64))
        shift = edge[digits]
        shift *= self.sqdt / n
        mean = z[0] if total is None else np.divide(total, n, out=total)
        shift -= np.multiply(mean, s - s_f, out=scratch.view(np.float64))
        z *= s
        z += shift
        return first, z


def fine_steps(horizon: float, dt_mc: float, dt_coarse: float | None) -> tuple[int, int]:
    """(n_fine, n_sub): fine steps over the horizon and per tree step (1
    without a tree).  Raises TreeError unless dt_mc divides both, at least
    once each."""
    n_fine = horizon / dt_mc
    if math.isinf(n_fine):
        raise TreeError(f"dt_mc={dt_mc} is too small: horizon / dt_mc overflows")
    if abs(n_fine - round(n_fine)) > 1e-9:
        raise TreeError(f"dt_mc={dt_mc} does not divide the horizon {horizon}")
    if round(n_fine) < 1:
        raise TreeError(f"dt_mc={dt_mc} is longer than the horizon {horizon}")
    n_fine = int(round(n_fine))
    n_sub = 1
    if dt_coarse is not None:
        n_sub = dt_coarse / dt_mc
        if abs(n_sub - round(n_sub)) > 1e-9:
            raise TreeError(f"dt_mc={dt_mc} does not divide the tree step {dt_coarse}")
        if round(n_sub) < 1:
            raise TreeError(f"dt_mc={dt_mc} is longer than the tree step {dt_coarse}")
        n_sub = int(round(n_sub))
    return n_fine, n_sub


def leaf_count(d: int, n_steps: int) -> int:
    """2**(d n_steps), the leaves of a d-component tree of n_steps steps;
    TreeError unless a leaf index, d bits per step, fits an int64."""
    if d * n_steps > 63:
        raise TreeError(f"a d={d} bridge of n_steps={n_steps} names its leaves by "
                        f"{d * n_steps} bits, past the int64 leaf bound of 63 bits")
    return 2**(d * n_steps)


def _bundle(horizon, M, sigma, dt_mc, seed, shape=None, leaves=None) -> PathBundle:
    """M paths over horizon, free or bridged through the leaves of a tree of shape."""
    sigma = np.asarray(sigma, dtype=float)
    d = n_steps = dt = sqdt = digit_signs = None
    if shape is not None:
        d, n_steps, _ = shape
        dt, sqdt, digit_signs = _steps(d, n_steps, horizon)
    if sigma.ndim != 1 or sigma.size < (d or 1):
        raise TreeError(f"need a diffusion row with d0 >= d >= 1 entries, got sigma={sigma}")
    n_fine, n_sub = fine_steps(horizon, dt_mc, dt)
    return PathBundle(leaves, d, n_steps, dt, sqdt, digit_signs, sigma, dt_mc, seed,
                      dt_mc * np.arange(n_fine + 1), M, n_fine, n_sub)


def bridge_paths(shape: tuple, leaf: int, M: int, sigma, dt_mc: float, seed) -> PathBundle:
    """M paths of sigma.dW bridged through the path to one leaf of the tree of
    shape (d, n_steps, horizon), tail columns free.  Deterministic given seed.
    """
    leaves = np.broadcast_to(np.int64(_leaf_index(leaf, leaf_count(*shape[:2]))), (M,))
    return _bundle(shape[2], M, sigma, dt_mc, seed, shape, leaves)


def free_paths(horizon: float, M: int, sigma, dt_mc: float, seed) -> PathBundle:
    """Unconstrained increments sigma.dW on the fine mesh."""
    return _bundle(horizon, M, sigma, dt_mc, seed)


def sample_tree_paths(shape: tuple, M: int, sigma, dt_mc: float, seed) -> PathBundle:
    """Bundle with leaves of the tree of shape (d, n_steps, horizon) drawn
    uniformly per path and bridged increments.

    Used for unconditional estimates under tree-adapted coefficients: the
    driving components and the coefficient process then share the same
    discrete noise, matching the solver side.
    """
    leaves = pcg64_integers((seed, 0x1EAF), leaf_count(*shape[:2]), M)
    return _bundle(shape[2], M, sigma, dt_mc, seed, shape, leaves)
