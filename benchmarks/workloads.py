"""The benchmark's workloads: harness experiment configs and what they stress.

Each workload is one acceptance experiment of the harness, run as a whole
through ``spdelab.harness.run`` in a fresh process with ``workers=1`` (a
closed loop: one run at a time, at most two busy threads with OpenBLAS).  The
workload seed becomes ``mc.seed``; without one, the experiment keeps its
pinned acceptance seed.

``operators-fine`` always keeps its acceptance seed.  There the seed only
draws the random test fields, and a single draw often misses the required
1.7 refinement factor of the G, B and R pairings: of seeds 1 to 10, all but
1, 2 and 9 fail one to four check rows.  Its input is therefore the same for
every seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    rows: int  # check rows the experiment reports
    nominal_s: float  # wall of one run on a 2-core Xeon; sets repetitions per --seconds
    why: str
    overrides: dict = field(default_factory=dict)
    seeded: bool = True  # whether the workload seed becomes mc.seed

    def config(self, seed=None, output_dir="out", overrides=None) -> dict:
        """Raw experiment config: workload overrides, then caller overrides."""
        raw = {"experiment": self.experiment, "output_dir": str(output_dir), "workers": 1}
        for extra in (self.overrides, overrides or {}):
            for section, values in extra.items():
                raw.setdefault(section, {}).update(values)
        if seed is not None and self.seeded:
            raw.setdefault("mc", {})["seed"] = int(seed)
        return raw


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="operators-fine",
            experiment="adjoint-suite",
            rows=10,
            nominal_s=40.0,
            overrides={"params": {"n_draws": 1}},
            seeded=False,
            why="full operator calculus T,G,B,R,L and five forward duals at the fine "
            "level (nx=201, 2^16 leaves); memory-bound, no Monte Carlo; fixed test fields",
        ),
        Workload(
            name="mc-bridged",
            experiment="density-64-65",
            rows=6,
            nominal_s=13.0,
            why="2 x 100k tree-bridged paths, d0=2, 500 steps; no path exits, so "
            "every marched step is useful",
        ),
        Workload(
            name="mc-exit",
            experiment="feynman-kac-nonrandom",
            rows=3,
            nominal_s=16.0,
            why="100k free paths, 4000 steps on [0,1]; every path exits and most "
            "marched steps come after the exit",
        ),
    ]
}
