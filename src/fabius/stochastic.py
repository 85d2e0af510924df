"""Monte Carlo oracle: phi(x) on [-1, 0] as a probability.

For independent u_1, u_2, ... uniform on [0, 1], phi(x) is the probability
that sum_k u_k 2^-k <= x + 1.  The estimator truncates the series at a fixed
depth (bias at most 2^-depth, far below statistical noise at any feasible
sample count) and draws from a counter-based generator so results are
reproducible regardless of how work is scheduled: sample block i is generated
from Philox keyed by (seed, i), so the estimate depends only on
(x, samples, depth, seed), never on worker count.

numpy is imported on the first block drawn, not with this module, so the
exact commands that import the package never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["BLOCK_SIZE", "McEstimate", "mc_phi"]

# Samples per generator block; fixed so that parallel schedules cannot
# change which block a sample belongs to.
BLOCK_SIZE = 1 << 16

# Deepest series truncation accepted: a double-precision sum gains nothing
# beyond about 53 terms, and each term costs a full pass over the block.
MAX_DEPTH = 64


@dataclass(frozen=True)
class McEstimate:
    """Result of one Monte Carlo run.

    estimate is the hit fraction in [0, 1], stderr the binomial normal
    approximation sqrt(p(1-p)/samples), bias_bound the series-truncation
    bound 2^-depth.  Identical (x, samples, depth, seed) give bit-identical
    results.
    """

    x: float
    samples: int
    depth: int
    estimate: float
    stderr: float
    seed: int

    @property
    def bias_bound(self) -> float:
        return 2.0 ** -self.depth


def _block_hits(x: float, seed: int, block_index: int, count: int, depth: int) -> int:
    """Hits within one self-contained generator block."""
    import numpy as np

    rng = np.random.Generator(
        np.random.Philox(key=np.array([seed, block_index], dtype=np.uint64))
    )
    total = np.zeros(count)
    weight = 0.5
    for _ in range(depth):
        total += rng.random(count) * weight
        weight *= 0.5
    # boundary counted as a hit (closed inequality); measure-zero event
    return int(np.count_nonzero(total <= x + 1.0))


def mc_phi(x: float, samples: int, depth: int = 40, seed: int = 0) -> McEstimate:
    """Estimate phi(x) for x in [-1, 0].

    The probabilistic interpretation is proven on [-1, 0] only; callers can
    reach (0, 1) through the evenness phi(x) = phi(-x).
    """
    if not -1.0 <= x <= 0.0:
        raise ValueError("mc_phi requires x in [-1, 0]")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if not 8 <= depth <= MAX_DEPTH:
        raise ValueError(f"depth must be in 8..{MAX_DEPTH}")
    if not 0 <= seed < 1 << 64:
        raise ValueError("seed must fit in 64 bits")
    hits = 0
    done = 0
    block = 0
    while done < samples:
        count = min(BLOCK_SIZE, samples - done)
        hits += _block_hits(x, seed, block, count, depth)
        done += count
        block += 1
    p = hits / samples
    stderr = math.sqrt(p * (1.0 - p) / samples)
    return McEstimate(
        x=x, samples=samples, depth=depth, estimate=p, stderr=stderr, seed=seed
    )
