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
depend on which other paths are drawn with it.  Every stream is seeded by
numpy's SeedSequence((seed, *tags)), which flattens nested tuples and lists
of ints at any depth.  The normals' key, `seed_key(seed)`, is a bit-exact
port of SeedSequence((seed,)).generate_state(1, np.uint64)[0]; sampled
leaves (`sample_tree_paths`) and density start points draw from its PCG64,
default_rng(SeedSequence((seed, tag))), through a bit-exact port of numpy
2.x's PCG64 (`pcg64_integers`, `pcg64_uniform`), so no draw needs
numpy.random.  The inverse normal CDF, `ndtri`, is a numpy port of
cephes' ndtri, so the package needs numpy alone.

Node addressing: the node with index i at level k has parent i // 2**d and
reaches child i * 2**d + j through branch digit j; bit c of the digit encodes
the sign of increment component c (bit 0 -> +sqrt(dt)).  So a leaf's index
holds its path's digits (`branch_digits`), and a path bundle holds leaves and
no tree.

At any d the `Lattice` recombines the tree by its first component (Cox, Ross
and Rubinstein 1979): state j of level k counts the down steps of w1, and one
rule, `w1_at`, sets w1 = sqrt(dt) (k - 2j) at a tree node's, a lattice state's
and a path's j.  Coefficients and test fields read the path only through w1,
so both store w1 (`w1[k]`), and a lattice field holds the tree field's
conditional means given (k, w1).  A tree node's matrices are those of its
state, so the tree also keeps each node's j (`states(k)`): a level solve
factors the k + 1 states of its `lattice` and gathers each node's factors
by its j.
Both classes give the solvers the level structure: `child(nxt, b, n_k)`,
child b of every level-k node as an (nx, n_k) view of level k+1;
`merge(rhs)`, level k+1 from per-child values (nx, n_k, br); and
`weights(k)`, the level probabilities P_k.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
from typing import NamedTuple, Sequence

import numpy as np

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

    def child(self, nxt, b: int, n_k: int) -> np.ndarray:
        """Child b of every level-k node, a strided view of level k+1."""
        return nxt.reshape(nxt.shape[0], n_k, self.branching)[:, :, b]

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
    w1 = [w1_at(k, j, sqdt) for k, j in enumerate(down)]
    down = [j.astype(np.intp) for j in down]  # a cast, no integer ufunc
    for arr in w1 + down:
        arr.setflags(write=False)
    return ScenarioTree(d, n_steps, horizon, dt, sqdt, digit_signs, tuple(w1), tuple(down))


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


# Moshier's Cephes ndtri (Methods and Programs for Mathematical Functions,
# 1989), the rational approximations scipy.special.ndtri evaluates, with its
# coefficients: y + y y^2 P0(y^2) / Q0(y^2), y = u - 1/2, times sqrt(2 pi) in
# the centre, exp(-2) < u <= 1 - exp(-2); in the tails x = sqrt(-2 log y),
# y = min(u, 1 - u), and x - log(x) / x - z P(z) / Q(z), z = 1 / x, with
# (P1, Q1) for x < 8 and (P2, Q2) for x >= 8.  Each Q has a leading 1.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242


def _coefficients(*values):
    """values as 0-d float64 arrays, which a ufunc takes with less overhead
    than Python floats (about 0.3 us a call), the same bits"""
    return tuple(np.array(v) for v in values)


_P0 = _coefficients(-5.99633501014107895267e1, 9.80010754185999661536e1,
                    -5.66762857469070293439e1, 1.39312609387279679503e1,
                    -1.23916583867381258016e0)
_Q0 = _coefficients(1.95448858338141759834e0, 4.67627912898881538453e0,
                    8.63602421390890590575e1, -2.25462687854119370527e2,
                    2.00260212380060660359e2, -8.20372256168333339912e1,
                    1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = _coefficients(4.05544892305962419923e0, 3.15251094599893866154e1,
                    5.71628192246421288162e1, 4.40805073893200834700e1,
                    1.46849561928858024014e1, 2.18663306850790267539e0,
                    -1.40256079171354495875e-1, -3.50424626827848203418e-2,
                    -8.57456785154685413611e-4)
_Q1 = _coefficients(1.57799883256466749731e1, 4.53907635128879210584e1,
                    4.13172038254672030440e1, 1.50425385692907503408e1,
                    2.50464946208309415979e0, -1.42182922854787788574e-1,
                    -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = _coefficients(3.23774891776946035970e0, 6.91522889068984211695e0,
                    3.93881025292474443415e0, 1.33303460815807542389e0,
                    2.01485389549179081538e-1, 1.23716634817820021358e-2,
                    3.01581553508235416007e-4, 2.65806974686737550832e-6,
                    6.23974539184983293730e-9)
_Q2 = _coefficients(6.02427039364742014255e0, 3.67983563856160859403e0,
                    1.37702099489081330271e0, 2.16236993594496635890e-1,
                    1.34204006088543189037e-2, 3.28014464682127739104e-4,
                    2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x, coeffs, out, monic=False):
    """The polynomial coeffs[0] x^n + ... + coeffs[n] (with a leading x^(n+1)
    term when monic) written to out, in the order of cephes' polevl and
    p1evl: c0 x + c1 first, then one rounded multiply and add per step."""
    if monic:
        np.add(x, coeffs[0], out)
    else:
        np.multiply(x, coeffs[0], out)
        np.add(out, coeffs[1], out)
    for c in coeffs[1 if monic else 2:]:
        np.multiply(out, x, out)
        np.add(out, c, out)
    return out


# the centre is evaluated at most _CENTRE_VALUES values at a time, so its
# two temporaries stay at 120 kB, under the 128 kB above which glibc's malloc
# maps an allocation afresh by default: in one piece, a call on 25,000
# normals met about 100 page faults, and feynman-kac-nonrandom's default run
# met 2,019 in ndtri (5,970 in all) against 308 (4,386) in pieces, on a
# 2-vCPU Xeon KVM guest where a fault costs about 3 us
_CENTRE_VALUES = 120 * 1024 // 8


def ndtri(u, out=None, scratch=None):
    """The inverse standard normal CDF of u, 0 < u < 1, by the steps of
    cephes' ndtri: the bits of scipy.special.ndtri in the centre; in the
    tails numpy's log, which may differ from the C library's in the last
    bit, moves a few of them by a few ulp.

    u, out (u's shape; a new array when None; it may be u) and scratch (a
    float64 array of u's shape that the call overwrites; a new one when
    None) are C-contiguous.  The tail values are taken and finished first,
    on a copy of the tail alone, so the centre can overwrite out.
    """
    out = np.empty(u.shape) if out is None else out
    u, flat = u.reshape(-1), out.reshape(-1)
    tail = ((u <= _EXP_M2) | (u > 1.0 - _EXP_M2)).nonzero()[0]
    if tail.size:
        sign = u[tail]
        x = np.subtract(1.0, sign)
        np.minimum(sign, x, out=x)  # y = min(u, 1 - u), exact
        sign -= 0.5
        np.log(x, out=x)
        x *= -2.0
        np.sqrt(x, out=x)
        z = np.divide(1.0, x)
        far = (x >= 8.0).nonzero()[0] if x.max() >= 8.0 else None
        x1 = np.log(x)
        x1 /= x
        x -= x1  # x0 = x - log(x) / x
        _horner(z, _P1, x1)
        x1 *= z
        x1 /= _horner(z, _Q1, np.empty(z.shape), monic=True)
        if far is not None:  # u within exp(-32) of 0 or 1
            zf = z[far]
            x1[far] = (zf * _horner(zf, _P2, np.empty(zf.shape))
                       / _horner(zf, _Q2, np.empty(zf.shape), monic=True))
        x -= x1
        np.copysign(x, sign, out=x)
        del z, x1, sign
    y = np.subtract(u, 0.5, out=flat)
    y2 = np.multiply(y, y, out=None if scratch is None else scratch.reshape(-1))
    piece_size = min(y.size, _CENTRE_VALUES)
    r, q = np.empty(piece_size), np.empty(piece_size)
    for lo in range(0, y.size, _CENTRE_VALUES):
        piece = slice(lo, lo + _CENTRE_VALUES)
        yp, y2p = y[piece], y2[piece]
        rp, qp = r[: yp.size], q[: yp.size]
        _horner(y2p, _P0, rp)
        rp *= y2p
        rp /= _horner(y2p, _Q0, qp, monic=True)
        rp *= yp
        rp += yp  # y + y r
        np.multiply(rp, _S2PI, out=yp)
    if tail.size:
        flat[tail] = x
    return out


# numpy's SeedSequence (bit_generator.pyx, O'Neill's seed_seq_fe) with its
# default pool of 4 words, in Python ints mod 2^32
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_M32 = 0xFFFFFFFF


def _entropy_words(entropy) -> list:
    """entropy's 32-bit words as SeedSequence coerces it: an int as its
    little-endian words ([0] for 0), a sequence as its items' words in
    order, at any nesting depth."""
    if isinstance(entropy, (str, bytes)):
        raise TypeError(f"a seed is an int or a sequence of them, got {entropy!r}")
    try:
        n = operator.index(entropy)
    except TypeError:
        return [word for item in entropy for word in _entropy_words(item)]
    if n < 0:
        raise ValueError(f"a seed is non-negative, got {n}")
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _generate_state(seed, n_words: int) -> list:
    """SeedSequence(seed).generate_state(n_words, np.uint64) as Python ints,
    bit for bit, without numpy.random: the entropy mixed into a 4-word pool,
    cycled through to generate 32-bit words, two of which form each
    little-endian uint64."""
    entropy = _entropy_words(seed)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = _INIT_B, []
    for i in range(2 * n_words):
        word = pool[i % 4] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        word = word * hash_const & _M32
        words.append(word ^ word >> 16)
    return [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])]


def seed_key(seed) -> np.uint64:
    """SeedSequence((seed,)).generate_state(1, np.uint64)[0], bit for bit."""
    return np.uint64(_generate_state((seed,), 1)[0])


# numpy's PCG64 (O'Neill, PCG: A Family of Simple Fast Space-Efficient
# Statistically Good Algorithms for Random Number Generation, HMC-CS-2014-0905):
# a 128-bit LCG state s -> s A + inc whose output is XSL-RR of the new state
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_M64, _M128 = 2**64 - 1, 2**128 - 1
_LOW32, _SHIFT32 = np.uint64(_M32), np.uint64(32)
_SHIFT58, _LOW6 = np.uint64(58), np.uint64(63)


def _affine128(hi, lo, a: int, c: int, out_hi, out_lo) -> None:
    """out = (hi, lo) a + c mod 2^128 on 128-bit states held as uint64
    halves; the high half of lo a_lo is built from 32-bit limbs."""
    a_lo, a_hi = np.uint64(a & _M64), np.uint64(a >> 64)
    b0, b1 = np.uint64(a & _M32), np.uint64(a >> 32 & _M32)
    c_lo = np.uint64(c & _M64)
    x0 = np.bitwise_and(lo, _LOW32)
    x1 = np.right_shift(lo, _SHIFT32)
    t = np.multiply(x0, b0, out=out_hi)
    t >>= _SHIFT32
    u = np.multiply(x1, b0)
    u += t  # x1 b0 + (x0 b0 >> 32) < 2^64
    x0 *= b1
    x0 += np.bitwise_and(u, _LOW32, out=t)  # w = (u & M32) + x0 b1 < 2^64
    x1 *= b1
    u >>= _SHIFT32
    x1 += u
    x0 >>= _SHIFT32
    x1 += x0  # the high half of lo a_lo
    np.multiply(lo, a_hi, out=out_hi)
    out_hi += x1
    out_hi += np.multiply(hi, a_lo, out=x1)
    np.multiply(lo, a_lo, out=out_lo)
    out_lo += c_lo
    out_hi += np.uint64(c >> 64)
    out_hi += out_lo < c_lo  # the carry of the low half


def _pcg64_seeded(seed) -> tuple:
    """(state, inc) of PCG64(SeedSequence(seed)), as numpy's srandom sets
    them from the generated words v0..v3: inc = 2 (v2 2^64 + v3) + 1 and,
    from state 0, a step, + v0 2^64 + v1, a step."""
    v0, v1, v2, v3 = _generate_state(seed, 4)
    inc = ((v2 << 64 | v3) << 1 | 1) & _M128
    return (inc + (v0 << 64 | v1)) * _PCG_MULT + inc & _M128, inc


def _pcg64_jump(steps: int, inc: int) -> tuple:
    """(A, C): s -> A s + C mod 2^128 is `steps` steps of the LCG, by squaring."""
    a, c, jump_a, jump_c = _PCG_MULT, inc, 1, 0
    while steps:
        if steps & 1:
            jump_a, jump_c = jump_a * a & _M128, (jump_c * a + c) & _M128
        a, c, steps = a * a & _M128, (a * c + c) & _M128, steps >> 1
    return jump_a, jump_c


def _xsl_rr(hi, lo, out) -> None:
    """out = PCG64's output of the states (hi, lo): hi ^ lo rotated right by
    the top 6 bits of hi."""
    np.bitwise_xor(hi, lo, out=out)
    rot = np.right_shift(hi, _SHIFT58)
    left = np.negative(rot)
    left &= _LOW6
    np.left_shift(out, left, out=left)
    out >>= rot
    out |= left


# the first states are stepped in Python ints, fewer than a doubling pass's
# ufunc calls (about 30 us) would make; then states are made and output
# _PCG_BLOCK at a time, in 64 kB scratch arrays: under the 128 kB above
# which glibc's malloc maps an allocation afresh (_CENTRE_VALUES).  On a
# 2-vCPU Xeon KVM guest 25,000 outputs took 0.44 ms in blocks of 2**13
# states, 0.60 ms in blocks of 2**11 and 0.47 ms in one piece; in a process
# without numpy.random one piece met 115 page faults a call, blocks 77
_BASE_STATES = 64
_PCG_BLOCK = 2**13


def _pcg64_outputs(seed, n: int) -> np.ndarray:
    """The first n outputs, uint64, of default_rng(SeedSequence(seed)),
    bit for bit: output i is XSL-RR of state s_i = A s_(i-1) + inc, from the
    seeded s_0.  The first block's states past the Python-stepped ones come
    by jump-ahead doubling (Brown, Trans. Am. Nucl. Soc. 71, 1994):
    s_(h+1..2h) = A_h s_(1..h) + C_h, with (A_2h, C_2h) = (A_h^2, A_h C_h + C_h);
    block j is the first block jumped j _PCG_BLOCK steps ahead."""
    state, inc = _pcg64_seeded(seed)
    size = min(n, _PCG_BLOCK)
    hi, lo = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
    states = []
    for _ in range(min(size, _BASE_STATES)):
        state = state * _PCG_MULT + inc & _M128
        states.append(state)
    h = len(states)
    hi[:h], lo[:h] = [s >> 64 for s in states], [s & _M64 for s in states]
    a, c = _pcg64_jump(h, inc)
    while h < size:
        k = min(h, size - h)
        _affine128(hi[:k], lo[:k], a, c, hi[h : h + k], lo[h : h + k])
        a, c, h = a * a & _M128, (a * c + c) & _M128, 2 * h
    out = np.empty(n, dtype=np.uint64)
    _xsl_rr(hi, lo, out[:size])
    if n > size:
        block_hi, block_lo = np.empty(size, dtype=np.uint64), np.empty(size, dtype=np.uint64)
        step_a, step_c = a, c = _pcg64_jump(size, inc)
        for first in range(size, n, size):
            k = min(size, n - first)
            _affine128(hi[:k], lo[:k], a, c, block_hi[:k], block_lo[:k])
            _xsl_rr(block_hi[:k], block_lo[:k], out[first : first + k])
            a, c = a * step_a & _M128, (step_a * c + step_c) & _M128
    return out


def pcg64_uniform(seed, n: int) -> np.ndarray:
    """default_rng(SeedSequence(seed)).uniform(size=n), bit for bit: each
    output's top 53 bits times 2^-53."""
    out = _pcg64_outputs(seed, n)
    out >>= np.uint64(11)
    return np.multiply(out, 2.0**-53, out=out.view(np.float64))


def pcg64_integers(seed, high: int, n: int) -> np.ndarray:
    """default_rng(SeedSequence(seed)).integers(0, high, size=n), int64, bit
    for bit, for high a power of two up to 2**63.  numpy's Lemire method
    never rejects in a power-of-two range 2**b: b = 0 draws nothing; for
    b <= 32 each output gives its low 32-bit word, then its high one, each
    shifted right by 32 - b; past 32 an output gives its top b bits."""
    bits = high.bit_length() - 1
    if bits == 0:
        return np.zeros(n, dtype=np.int64)
    if bits > 32:
        out = _pcg64_outputs(seed, n)
        out >>= np.uint64(64 - bits)
        return out.view(np.int64)
    out = _pcg64_outputs(seed, -(-n // 2))
    words = np.empty((out.size, 2), dtype=np.uint64)
    np.bitwise_and(out, _LOW32, out=words[:, 0])
    np.right_shift(out, _SHIFT32, out=words[:, 1])
    words = words.reshape(-1)[:n]
    words >>= np.uint64(32 - bits)
    return words.view(np.int64)


_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def _counter_normals(key: np.uint64, counters: np.ndarray, out=None) -> np.ndarray:
    """Standard normals that are a fixed function of (key, counter).

    Counter-based generation: the SplitMix64 output at position `counter`
    of the stream seeded by `key` (Steele, Lea and Flood, OOPSLA 2014) gives
    53 uniform bits, mapped to a normal by `ndtri`.  Any subset of counters
    is evaluated on its own, so draws need no generator state.
    `counters` (uint64, C-contiguous) is overwritten; the normals are written
    to `out` (float64, the counters' shape, C-contiguous; a new array when
    None), whose bytes also hold the shifted words of the hash.  Once the
    uniforms are formed, `ndtri` takes the counters' bytes as its scratch.
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
    return ndtri(u, out=u, scratch=z.view(np.float64))


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
# _counter_normals call (2 steps of a tree block at 12.5k rows; a free span,
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
        """w1_at of the rows' down_steps: the tree's w1 at their paths' nodes
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
            part = _counter_normals(self._key, counters[: hi - lo], out=z[lo:hi])
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
