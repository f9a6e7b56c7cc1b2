"""Seeded run lists for the benchmark workloads.

A run list is a sequence of blocks.  Every block holds the same mix: for
each problem of the workload one cold start (in the problem's box) and
one warm start (a Gaussian offset from the known optimum, the
usual real-time-optimization restart), each run under all three
algorithms.  Timing stops only at a block boundary, so every measured
sample set has the workload's exact mix.

Each entry is ``(meta, raw)``: ``raw`` is the config mapping the program
receives; ``meta`` is what the benchmark alone needs to check outputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ALGORITHMS = ("basic-ma", "trust-region", "ma-tr")

OPTIMA = {"P1": (1.0, 1.0), "P2": (0.0,), "P3": (1.0, 1.0), "P4": (3.0, 2.0)}

# Cold-start boxes, one (low, high) pair per component.  P3's box lies
# below the Rosenbrock valley: runs from there enter the valley and crawl
# along it, so the gap left at the iteration cap measures that crawl.
COLD_BOXES = {
    "P1": ((-3.0, 3.0), (-3.0, 3.0)),
    "P2": ((-3.0, 3.0),),
    "P3": ((-2.0, 2.0), (-2.0, 0.0)),
    "P4": ((-3.0, 3.0), (-3.0, 3.0)),
}

WARM_SIGMA = 0.2


@dataclass(frozen=True)
class Workload:
    name: str
    # (problem, starts per block); a problem's starts alternate cold, warm, cold, ...
    starts: tuple[tuple[str, int], ...]
    blocks: int
    noise_level: float = 0.0
    max_iterations: int = 500
    export: bool = False
    # percentile reported as solve_ms_tail; a run keeps timing until at
    # least ten samples lie beyond it
    tail_level: int = 90

    @property
    def block_size(self) -> int:
        return sum(n for _, n in self.starts) * len(ALGORITHMS)

    @property
    def min_samples(self) -> int:
        return -(-10 * 100 // (100 - self.tail_level))


WORKLOADS = {
    w.name: w
    for w in (
        # P1 converges from anywhere in 1-3 iterations, so it gets one start
        # per block; P4 the most, its runs being the longest.  This puts the
        # median solve inside the trust-region runs, not on the edge between
        # them and the short runs, where it would jump with each seed.
        Workload("converge", (("P1", 1), ("P2", 2), ("P4", 3)), blocks=25, export=True,
                 tail_level=95),
        Workload("rosenbrock-cap", (("P3", 2),), blocks=4, tail_level=80),
        Workload("noisy", (("P1", 2), ("P4", 2)), blocks=6, noise_level=0.02,
                 max_iterations=100, tail_level=90),
    )
}


def _cold_starts(rng: np.random.Generator, problem: str, count: int) -> np.ndarray:
    """Latin-hypercube starts in the problem's box: along every axis each
    of ``count`` equal strata holds exactly one start, so two seeds give
    starts spread alike and the workload's figures move little between
    seeds."""
    low, high = np.array(COLD_BOXES[problem]).T
    strata = np.column_stack([rng.permutation(count) for _ in range(low.size)])
    return low + (strata + rng.random(strata.shape)) / count * (high - low)


def run_list(workload: Workload, seed: int) -> list[tuple[dict, dict]]:
    """The workload's run list for ``seed``; the same seed gives the same list."""
    rng = np.random.default_rng([seed, sum(map(ord, workload.name))])
    kinds = {p: [("cold", "warm")[j % 2] for j in range(n)] for p, n in workload.starts}
    cold = {p: iter(_cold_starts(rng, p, workload.blocks * k.count("cold")))
            for p, k in kinds.items()}
    entries = []
    for block in range(workload.blocks):
        for problem, _ in workload.starts:
            for j, kind in enumerate(kinds[problem]):
                if kind == "cold":
                    start = next(cold[problem])
                else:
                    opt = np.array(OPTIMA[problem])
                    start = opt + rng.normal(0.0, WARM_SIGMA, opt.size)
                u0 = [float(x) for x in start]
                for algorithm in ALGORITHMS:
                    raw = {"problem": problem, "algorithm": algorithm, "u0": u0}
                    if workload.noise_level > 0.0:
                        raw["noise_level"] = workload.noise_level
                        raw["seed"] = int(rng.integers(2**31))
                    if workload.max_iterations != 500:
                        raw["max_iterations"] = workload.max_iterations
                    meta = {"start": (block, problem, j),
                            "noisy": workload.noise_level > 0.0}
                    entries.append((meta, raw))
    return entries
