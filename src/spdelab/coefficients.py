"""Random coefficient fields with validated bounds.

Three builtin families, one row each of `FAMILIES`, cover the regimes
exercised by the experiments; beta is the constant row sigma in all three:

* ``constant``      -- f = f0 nonrandom and frozen; the Bismut-type kernel
                       vanishes identically downstream.
* ``drift-random``  -- f(t, omega) = kappa * tanh(omega_1(t)), x-independent.
* ``space-smooth``  -- f(x, t, omega) = a * sin(pi x) * (1 + eps * tanh(omega_1(t))).

All randomness enters through the first driving component evaluated at the
current tree node, so adaptedness holds by construction.  Bounds (the
ellipticity constants and sup/Lipschitz constants) are sampled over the
grid x tree lattice by `validate`, as a guard rather than a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .domain import Grid
from .tree import ScenarioTree

DEGENERACY_FLOOR = 1e-6


class CoefficientError(ValueError):
    """Raised for unknown families or parameters outside documented ranges."""


class Family(NamedTuple):
    """A builtin family: its parameter keys, drift f(params, x, w1) (no family
    reads t), analytic sup bound K1(params), whether the drift reads x (if
    not, it is constant on a tree node) and is random, and refuse(params),
    what make_family's refusal says of parameters outside the family's
    range (None inside it)."""

    keys: tuple
    drift: Callable
    bound: Callable
    reads_x: bool
    random: bool
    refuse: Callable = lambda p: None


FAMILIES = {
    "constant": Family(("f0",), lambda p, x, w1: np.float64(p["f0"]),
                       lambda p: abs(p["f0"]), False, False),
    "drift-random": Family(("kappa",), lambda p, x, w1: p["kappa"] * np.tanh(w1),
                           lambda p: abs(p["kappa"]), False, True),
    "space-smooth": Family(("a", "eps"),
                           lambda p, x, w1: p["a"] * np.sin(np.pi * x) * (1.0 + p["eps"] * np.tanh(w1)),
                           lambda p: abs(p["a"]) * (1.0 + abs(p["eps"])), True, True,
                           lambda p: "space-smooth needs |eps| < 1 to keep the drift sign fixed"
                           if abs(p["eps"]) >= 1.0 else None),
}


def _family(name) -> Family:
    if name not in FAMILIES:
        raise CoefficientError(f"unknown family {name!r}")
    return FAMILIES[name]


@dataclass(frozen=True)
class CoefficientSet:
    """Evaluable drift f and diffusion row beta with their derived data.

    sigma holds the d0 diffusion columns (constant in x and omega for all
    builtin families); the first `d` columns ride on the scenario tree and
    the remaining tail block drives the independent noise.
    """

    family: str
    d: int
    sigma: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        _family(self.family)

    @property
    def d0(self) -> int:
        return self.sigma.size

    @property
    def b_total(self) -> float:
        """b = beta beta^T (scalar in one dimension)."""
        return float(np.dot(self.sigma, self.sigma))

    @property
    def tail_eig(self) -> float:
        """Smallest eigenvalue of the tail block product (0 when d = d0)."""
        tail = self.sigma[self.d :]
        return float(np.dot(tail, tail))

    @property
    def is_random(self) -> bool:
        return FAMILIES[self.family].random

    @property
    def drift_reads_x(self) -> bool:
        """Whether the drift reads x; if not, it is constant on a tree node."""
        return FAMILIES[self.family].reads_x

    def superparabolic(self) -> bool:
        return self.d < self.d0 and self.tail_eig >= DEGENERACY_FLOOR

    def drift(self, x, t, w1):
        """Drift value; x and w1 broadcast (w1 is the first Wiener component
        at the evaluation node).  A drift that does not read x comes back as
        a read-only broadcast to the shape of x and w1."""
        x = np.asarray(x, dtype=float)
        w1 = np.asarray(w1, dtype=float)
        row = FAMILIES[self.family]
        out = row.drift(self.params, x, w1)
        return out if row.reads_x else np.broadcast_to(out, np.broadcast_shapes(x.shape, w1.shape))

    def drift_bound(self) -> float:
        """Analytic sup bound K1 for the family."""
        return float(FAMILIES[self.family].bound(self.params))

    # Node-indexed evaluation used by the tree solvers -------------------

    def drift_nodes(self, grid: Grid, tree: ScenarioTree, level: int) -> np.ndarray:
        """Drift on the interior nodes for every level-`level` tree node.

        Returns (n_nodes(level), grid.ni), or (n_nodes(level), 1) for the
        families whose drift does not depend on x.
        """
        w1 = tree.w1[level][:, None]  # (n_nodes, 1)
        x = grid.x_interior[None, :]
        if not self.drift_reads_x:
            x = x[:, :1]
        return np.atleast_2d(self.drift(x, level * tree.dt, w1))


def make_family(name: str, params: dict) -> CoefficientSet:
    """Build one of the builtin coefficient families.

    params must contain "sigma" (sequence of d0 diffusion entries) and may
    contain "d" (number of tree-driven components, default d0); remaining
    keys are the family's keys in FAMILIES.
    """
    params = dict(params)
    sigma = np.asarray(params.pop("sigma", None), dtype=float)
    if sigma.ndim != 1 or sigma.size == 0:
        raise CoefficientError("params must provide a non-empty sigma row")
    d = int(params.pop("d", sigma.size))
    if not 1 <= d <= sigma.size:
        raise CoefficientError(f"need 1 <= d <= d0={sigma.size}, got d={d}")
    if np.dot(sigma, sigma) < DEGENERACY_FLOOR:
        raise CoefficientError("beta beta^T is degenerate (sigma too small)")
    row = _family(name)
    keys = row.keys
    missing = [k for k in keys if k not in params]
    if missing:
        raise CoefficientError(f"family {name!r} missing parameters {missing}")
    extra = set(params) - set(keys)
    if extra:
        raise CoefficientError(f"family {name!r} got unknown parameters {sorted(extra)}")
    vals = {k: float(params[k]) for k in keys}
    if not all(np.isfinite(v) for v in vals.values()):
        raise CoefficientError("coefficient parameters must be finite")
    refusal = row.refuse(vals)
    if refusal:
        raise CoefficientError(refusal)
    sigma = sigma.copy()
    sigma.setflags(write=False)
    return CoefficientSet(family=name, d=d, sigma=sigma, params=vals)


@dataclass(frozen=True)
class ValidationReport:
    """Sampled coefficient bounds and the pass/fail flags derived from them."""

    delta: float
    delta_b: float
    k1: float
    k2: float
    k3: float
    lipschitz_f: float
    flags: dict
    messages: tuple

    @property
    def passed(self) -> bool:
        return all(self.flags.values())


def validate(coeffs: CoefficientSet, grid: Grid, tree: ScenarioTree,
             require_superparabolic: bool = False) -> ValidationReport:
    """Measure coefficient bounds over the grid x tree lattice.

    Failures are reported as flags, never raised: delta_b must stay above
    the degeneracy floor, sampled sup bounds must be finite, and when the
    superparabolic regime is requested the tail block must be nondegenerate.
    """
    k1 = 0.0
    lip = 0.0
    for level in range(tree.n_steps + 1):
        f = np.broadcast_to(
            coeffs.drift_nodes(grid, tree, level), (tree.n_nodes(level), grid.ni)
        )
        k1 = max(k1, float(np.abs(f).max()))
        if grid.ni > 1:
            lip = max(lip, float(np.abs(np.diff(f, axis=1)).max() / grid.dx))
    k2 = float(np.linalg.norm(coeffs.sigma))
    delta_b = coeffs.b_total
    flags = {
        "bounded": bool(np.isfinite(k1) and np.isfinite(k2)),
        "lipschitz": bool(np.isfinite(lip)),
        "elliptic": delta_b >= DEGENERACY_FLOOR,
    }
    messages = []
    if require_superparabolic:
        flags["superparabolic"] = coeffs.superparabolic()
        if not flags["superparabolic"]:
            messages.append(
                "beta tilde degenerate: superparabolic mode needs d < d0 with a "
                "nondegenerate tail block"
            )
    if not flags["elliptic"]:
        messages.append("beta beta^T eigenvalue below the degeneracy floor")
    # k3, the Lipschitz constant of beta in x, is 0: beta is the constant row sigma
    return ValidationReport(delta=coeffs.tail_eig, delta_b=delta_b, k1=k1, k2=k2, k3=0.0,
                            lipschitz_f=lip, flags=flags, messages=tuple(messages))
