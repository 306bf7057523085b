"""Random coefficient fields with validated bounds.

Three builtin families cover the regimes exercised by the experiments:

* ``constant``      -- f and beta nonrandom and frozen; the Bismut-type
                       kernel vanishes identically downstream.
* ``drift-random``  -- f(t, omega) = kappa * tanh(omega_1(t)), x-independent,
                       beta a constant row with a nondegenerate tail block.
* ``space-smooth``  -- f(x, t, omega) = a * sin(pi x) * (1 + eps * tanh(omega_1(t))),
                       one space dimension, beta constant.

All randomness enters through the first driving component evaluated at the
current tree node, so adaptedness holds by construction.  Bounds (the
ellipticity constants and sup/Lipschitz constants) are sampled over the
grid x tree lattice by `validate`, as a guard rather than a proof.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .domain import Grid
from .tree import ScenarioTree

DEGENERACY_FLOOR = 1e-6


class CoefficientError(ValueError):
    """Raised for unknown families or parameters outside documented ranges."""


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
        return self.family != "constant"

    @property
    def drift_reads_x(self) -> bool:
        """Whether the drift reads x; when it does not, it is a function of
        w1 alone (no family reads t), so it is constant on a tree node."""
        return self.family == "space-smooth"

    def superparabolic(self) -> bool:
        return self.d < self.d0 and self.tail_eig >= DEGENERACY_FLOOR

    def drift(self, x, t, w1):
        """Drift value; x and w1 broadcast (w1 is the first Wiener component
        at the evaluation node)."""
        x = np.asarray(x, dtype=float)
        w1 = np.asarray(w1, dtype=float)
        if self.family == "constant":
            return np.broadcast_to(
                np.float64(self.params["f0"]), np.broadcast_shapes(x.shape, w1.shape)
            )
        if self.family == "drift-random":
            out = self.params["kappa"] * np.tanh(w1)
            return np.broadcast_to(out, np.broadcast_shapes(x.shape, w1.shape))
        if self.family == "space-smooth":
            return (
                self.params["a"]
                * np.sin(np.pi * x)
                * (1.0 + self.params["eps"] * np.tanh(w1))
            )
        raise CoefficientError(f"unknown family {self.family!r}")

    def beta(self, x=None, t=None, w1=None) -> np.ndarray:
        """Diffusion row (d0,); constant for every builtin family."""
        return self.sigma

    def drift_bound(self) -> float:
        """Analytic sup bound K1 for the family."""
        if self.family == "constant":
            return abs(float(self.params["f0"]))
        if self.family == "drift-random":
            return abs(float(self.params["kappa"]))
        if self.family == "space-smooth":
            return abs(self.params["a"]) * (1.0 + abs(self.params["eps"]))
        raise CoefficientError(f"unknown family {self.family!r}")

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
    keys are family specific: f0 (constant), kappa (drift-random),
    a and eps (space-smooth).
    """
    params = dict(params)
    sigma = np.asarray(params.pop("sigma", None), dtype=float)
    if sigma is None or sigma.ndim != 1 or sigma.size == 0:
        raise CoefficientError("params must provide a non-empty sigma row")
    d = int(params.pop("d", sigma.size))
    if not 1 <= d <= sigma.size:
        raise CoefficientError(f"need 1 <= d <= d0={sigma.size}, got d={d}")
    if np.dot(sigma, sigma) < DEGENERACY_FLOOR:
        raise CoefficientError("beta beta^T is degenerate (sigma too small)")
    known = {
        "constant": ("f0",),
        "drift-random": ("kappa",),
        "space-smooth": ("a", "eps"),
    }
    if name not in known:
        raise CoefficientError(f"unknown family {name!r}")
    missing = [k for k in known[name] if k not in params]
    if missing:
        raise CoefficientError(f"family {name!r} missing parameters {missing}")
    extra = set(params) - set(known[name])
    if extra:
        raise CoefficientError(f"family {name!r} got unknown parameters {sorted(extra)}")
    vals = {k: float(params[k]) for k in known[name]}
    if not all(np.isfinite(v) for v in vals.values()):
        raise CoefficientError("coefficient parameters must be finite")
    if name == "space-smooth" and abs(vals["eps"]) >= 1.0:
        raise CoefficientError("space-smooth needs |eps| < 1 to keep the drift sign fixed")
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


def validate(
    coeffs: CoefficientSet,
    grid: Grid,
    tree: ScenarioTree,
    require_superparabolic: bool = False,
) -> ValidationReport:
    """Measure coefficient bounds over the grid x tree lattice.

    Failures are reported as flags, never raised: delta_b must stay above
    the degeneracy floor, sampled sup bounds must be finite, and when the
    superparabolic regime is requested the tail block must be nondegenerate.
    """
    k1 = 0.0
    lip = 0.0
    xi = grid.x_interior
    for level in range(tree.n_steps + 1):
        f = np.broadcast_to(
            coeffs.drift_nodes(grid, tree, level), (tree.n_nodes(level), grid.ni)
        )
        k1 = max(k1, float(np.abs(f).max()))
        if grid.ni > 1:
            lip = max(lip, float(np.abs(np.diff(f, axis=1)).max() / grid.dx))
    k2 = float(np.linalg.norm(coeffs.sigma))
    # beta is sampled in x by finite differences even though the builtin
    # families are x-independent, so K3 genuinely measures ~0 here.
    beta_lo = coeffs.beta(xi[:-1], 0.0, 0.0)
    beta_hi = coeffs.beta(xi[1:], 0.0, 0.0)
    k3 = float(np.max(np.abs(np.atleast_1d(beta_hi) - np.atleast_1d(beta_lo))) / grid.dx)
    delta_b = coeffs.b_total
    delta = coeffs.tail_eig
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
    return ValidationReport(
        delta=delta,
        delta_b=delta_b,
        k1=k1,
        k2=k2,
        k3=k3,
        lipschitz_f=lip,
        flags=flags,
        messages=tuple(messages),
    )
